package mh

import (
	"errors"
	"math"
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// goldenSizedModel is the batched golden corpus's near-critical model: a
// 40-node, 100-edge random graph with p uniform in [0.3, 0.5).
func goldenSizedModel() *core.ICM {
	r := rng.New(61)
	g := graph.Random(r, 40, 100)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = r.Uniform(0.3, 0.5)
	}
	return core.MustNewICM(g, p)
}

// batchEstimator is one batched estimator, run from scratch (batch) or
// on a given chain (on), with its answers flattened to float64s.
type batchEstimator struct {
	name  string
	batch func(m *core.ICM, conds []core.FlowCondition, opts Options, r *rng.RNG) ([]float64, error)
	on    func(s *Sampler, opts Options) ([]float64, error)
}

func batchEstimators(pairs []FlowPair, sets [][]graph.NodeID) []batchEstimator {
	sources := pairSources(pairs)
	flatten := func(rows [][]float64, err error) ([]float64, error) {
		var out []float64
		for _, row := range rows {
			out = append(out, row...)
		}
		return out, err
	}
	impacts := func(rows [][]int, err error) ([]float64, error) {
		var out []float64
		for _, row := range rows {
			for _, v := range row {
				out = append(out, float64(v))
			}
		}
		return out, err
	}
	return []batchEstimator{
		{"flow",
			func(m *core.ICM, conds []core.FlowCondition, opts Options, r *rng.RNG) ([]float64, error) {
				return FlowProbBatch(m, pairs, conds, opts, r)
			},
			func(s *Sampler, opts Options) ([]float64, error) { return FlowProbBatchOn(s, pairs, opts) }},
		{"community",
			func(m *core.ICM, conds []core.FlowCondition, opts Options, r *rng.RNG) ([]float64, error) {
				return flatten(CommunityFlowProbsBatch(m, sources, conds, opts, r))
			},
			func(s *Sampler, opts Options) ([]float64, error) {
				return flatten(CommunityFlowProbsBatchOn(s, sources, opts))
			}},
		{"impact",
			func(m *core.ICM, conds []core.FlowCondition, opts Options, r *rng.RNG) ([]float64, error) {
				return impacts(ImpactDistributionBatch(m, sets, conds, opts, r))
			},
			func(s *Sampler, opts Options) ([]float64, error) {
				return impacts(ImpactDistributionBatchOn(s, sets, opts))
			}},
	}
}

// TestCloneResumesBurnedInChain: a chain burned in by BurnIn and then
// cloned answers every batched estimator, run with BurnIn 0, exactly as
// the estimator's fresh call on the same seed does with the full
// burn-in (each answer equal by Float64bits), with the same post-burn-in
// acceptance rate. It runs on the served fixture, unconditioned and
// under several evidence sets, and on a 40-node golden model.
func TestCloneResumesBurnedInChain(t *testing.T) {
	served, golden := servedModel(), goldenSizedModel()
	cases := []struct {
		name  string
		m     *core.ICM
		conds []core.FlowCondition
		opts  Options
	}{
		{"served", served, nil, servedSchedule(served, 3)},
		{"served/evidence19", served, servedEvidence(served), servedSchedule(served, 3)},
		{"served/evidence1", served, servedEvidenceFrom(served, 1), servedSchedule(served, 3)},
		{"served/evidence2", served, servedEvidenceFrom(served, 2), servedSchedule(served, 3)},
		{"golden", golden, nil, servedSchedule(golden, 150)},
		{"golden/evidence", golden, servedEvidenceFrom(golden, 62), servedSchedule(golden, 150)},
	}
	const seed = 41
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := rng.New(7)
			pairs := randomPairs(r, c.m.NumNodes(), 12)
			sets := [][]graph.NodeID{{pairs[0].Source}, {pairs[1].Source, pairs[2].Sink, pairs[3].Source}}
			base, err := NewSampler(c.m, c.conds, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := base.BurnIn(c.opts); err != nil {
				t.Fatal(err)
			}
			kept := base.Keep()
			warm := c.opts
			warm.BurnIn = 0
			for i, est := range batchEstimators(pairs, sets) {
				want, err := est.batch(c.m, c.conds, c.opts, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := NewSampler(c.m, c.conds, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := est.on(fresh, c.opts); err != nil {
					t.Fatal(err)
				}
				// Alternate the two ways to clone: from the chain and
				// from its kept start.
				clone := base.Clone()
				if i%2 == 1 {
					clone = kept.Clone()
				}
				got, err := est.on(clone, warm)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d answers, fresh %d", est.name, len(got), len(want))
				}
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("%s answer %d: clone %v, fresh %v", est.name, k, got[k], want[k])
					}
				}
				if a, b := clone.PostBurnInAcceptanceRate(), fresh.PostBurnInAcceptanceRate(); math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s: clone acceptance %v, fresh %v", est.name, a, b)
				}
			}
		})
	}
}

// chainHash folds everything that decides a chain's future into one
// FNV-1a hash: the state, the proposal tree's prefix sums and total, the certificates,
// the counters and the RNG.
func chainHash(s *Sampler) uint64 {
	h := uint64(14695981039346656037)
	add := func(w uint64) {
		h ^= w
		h *= 1099511628211
	}
	for _, w := range s.x {
		add(w)
	}
	for i := 0; i < s.tree.Len(); i++ {
		add(math.Float64bits(s.tree.PrefixSum(i)))
	}
	add(math.Float64bits(s.tree.Total()))
	for _, certs := range s.certs {
		for _, c := range certs {
			add(uint64(c.key))
			for _, w := range c.mark {
				add(w)
			}
			for _, v := range c.members {
				add(uint64(v))
			}
		}
	}
	for _, v := range []int64{s.steps, s.accepted, s.winSteps, s.winAccepted} {
		add(uint64(v))
	}
	r := *s.r
	add(r.Uint64())
	return h
}

// TestCloneIsIndependent: stepping a clone (and a clone of a kept start)
// 10^5 times leaves the original chain, and the start, as they were:
// the same state hash and the same next RNG output.
func TestCloneIsIndependent(t *testing.T) {
	m := servedModel()
	s, err := NewSampler(m, servedEvidence(m), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BurnIn(servedSchedule(m, 1)); err != nil {
		t.Fatal(err)
	}
	kept := s.Keep()
	before, keptBefore := chainHash(s), chainHash(kept.Clone())
	next := *s.r
	want := next.Uint64()
	for _, c := range []*Sampler{s.Clone(), kept.Clone()} {
		for i := 0; i < 100_000; i++ {
			c.Step()
		}
		if chainHash(c) == before {
			t.Fatal("clone did not move in 10^5 steps")
		}
	}
	if chainHash(s) != before {
		t.Error("stepping a clone changed the original chain")
	}
	if chainHash(kept.Clone()) != keptBefore {
		t.Error("stepping a clone changed the kept start")
	}
	if got := s.r.Uint64(); got != want {
		t.Errorf("original's next RNG output %d, want %d", got, want)
	}
}

// TestBurnInInterruptResumable: a BurnIn interrupted at its first poll
// or a later one returns an error wrapping ErrInterrupted, and the chain
// stays resumable: finishing the remaining burn-in and then running
// with BurnIn 0 emits the samples of an uninterrupted run.
func TestBurnInInterruptResumable(t *testing.T) {
	m := fixedICM(7)
	opts := Options{BurnIn: 200, Thin: 13, Samples: 40}
	warm := opts
	warm.BurnIn = 0

	ref, err := NewSampler(m, nil, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	want, err := collectRun(t, func(v func(core.PseudoState)) error { return ref.Run(opts, v) })
	if err != nil {
		t.Fatal(err)
	}

	for _, stop := range []struct {
		name string
		poll int
	}{
		{"first poll", 1},
		{"third poll", 3},
	} {
		s, err := NewSampler(m, nil, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		polls := 0
		stopped := opts
		stopped.Interrupt = func() bool { polls++; return polls == stop.poll }
		err = s.BurnIn(stopped)
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("%s: BurnIn err = %v, want ErrInterrupted", stop.name, err)
		}
		if got, want := s.Steps(), int64(stop.poll*opts.Thin); got != want {
			t.Fatalf("%s: stopped after %d steps, want %d", stop.name, got, want)
		}
		rest := opts
		rest.BurnIn -= int(s.Steps())
		if err := s.BurnIn(rest); err != nil {
			t.Fatal(err)
		}
		got, err := collectRun(t, func(v func(core.PseudoState)) error { return s.Run(warm, v) })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d samples, want %d", stop.name, len(got), len(want))
		}
		for k := range want {
			for w := range want[k] {
				if got[k][w] != want[k][w] {
					t.Fatalf("%s: sample %d differs from the uninterrupted run's", stop.name, k)
				}
			}
		}
		if a, b := s.PostBurnInAcceptanceRate(), ref.PostBurnInAcceptanceRate(); a != b {
			t.Errorf("%s: acceptance %v, uninterrupted %v", stop.name, a, b)
		}
	}
}

// TestBurnInRejectsBadOptions: BurnIn validates only what it reads.
func TestBurnInRejectsBadOptions(t *testing.T) {
	s, err := NewSampler(fixedICM(7), nil, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Options{{BurnIn: -1, Thin: 5}, {BurnIn: 10, Thin: 0}} {
		if err := s.BurnIn(o); err == nil {
			t.Errorf("BurnIn accepted %+v", o)
		}
	}
	if err := s.BurnIn(Options{BurnIn: 10, Thin: 5}); err != nil {
		t.Errorf("BurnIn with Samples 0: %v", err)
	}
}
