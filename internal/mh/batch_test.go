package mh

import (
	"testing"

	"infoflow/internal/bitset"
	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// batchTestModel builds a small random ICM for the differential tests.
func batchTestModel(seed uint64, n, m int) *core.ICM {
	r := rng.New(seed)
	g := graph.Random(r, n, m)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = r.Float64()
	}
	return core.MustNewICM(g, p)
}

// randomPairs draws k (source, sink) pairs with source != sink.
func randomPairs(r *rng.RNG, n, k int) []FlowPair {
	pairs := make([]FlowPair, k)
	for i := range pairs {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n))
		for v == u {
			v = graph.NodeID(r.Intn(n))
		}
		pairs[i] = FlowPair{Source: u, Sink: v}
	}
	return pairs
}

// servedSchedule is the schedule the server runs (DefaultOptions: Thin =
// NumEdges, BurnIn = 4*Thin) cut to a test-sized sample count.
func servedSchedule(m *core.ICM, samples int) Options {
	opts := DefaultOptions(m.NumEdges())
	opts.Samples = samples
	return opts
}

// TestFlowProbBatchMatchesPerPair is the determinism gate: because the
// chain's randomness does not depend on the queries, FlowProbBatch over
// k pairs must produce exactly the per-pair FlowProb estimates of the
// same seed — hit count for hit count. The 70-pair batch crosses the
// 64-lane chunk boundary, so both chunks are exercised, at a short
// thinning interval and at the served one.
func TestFlowProbBatchMatchesPerPair(t *testing.T) {
	m := batchTestModel(11, 30, 80)
	const seed = 99
	pairs := randomPairs(rng.New(5), m.NumNodes(), 70)
	for _, opts := range []Options{{BurnIn: 100, Thin: 20, Samples: 150}, servedSchedule(m, 150)} {
		batch, err := FlowProbBatch(m, pairs, nil, opts, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(pairs) {
			t.Fatalf("batch returned %d estimates for %d pairs", len(batch), len(pairs))
		}
		for k, pair := range pairs {
			single, err := FlowProb(m, pair.Source, pair.Sink, nil, opts, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if batch[k] != single {
				t.Errorf("thin %d pair %d (%d~>%d): batch %v != per-pair %v",
					opts.Thin, k, pair.Source, pair.Sink, batch[k], single)
			}
		}
	}
}

// TestFlowProbBatchConditioned repeats the differential gate with flow
// conditions constraining the chain, at a short thinning interval and
// at the served one.
func TestFlowProbBatchConditioned(t *testing.T) {
	m := batchTestModel(12, 25, 70)
	// Condition on a flow the maximal state carries, so it is satisfiable.
	x := core.NewPseudoState(m.NumEdges())
	for i := range x {
		x[i] = m.P[i] > 0
	}
	var conds []core.FlowCondition
	for v := graph.NodeID(1); v < graph.NodeID(m.NumNodes()) && len(conds) == 0; v++ {
		if m.HasFlow(0, v, x) {
			conds = append(conds, core.FlowCondition{Source: 0, Sink: v, Require: true})
		}
	}
	if len(conds) == 0 {
		t.Skip("no satisfiable condition in this model")
	}
	const seed = 123
	pairs := randomPairs(rng.New(6), m.NumNodes(), 9)
	for _, opts := range []Options{{BurnIn: 120, Thin: 25, Samples: 120}, servedSchedule(m, 120)} {
		batch, err := FlowProbBatch(m, pairs, conds, opts, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for k, pair := range pairs {
			single, err := FlowProb(m, pair.Source, pair.Sink, conds, opts, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if batch[k] != single {
				t.Errorf("thin %d pair %d: conditioned batch %v != per-pair %v", opts.Thin, k, batch[k], single)
			}
		}
	}
}

// TestCommunityFlowProbsBatchMatchesSingle checks the multi-source
// community variant against CommunityFlowProbs source by source, across
// the chunk boundary (65 sources).
func TestCommunityFlowProbsBatchMatchesSingle(t *testing.T) {
	m := batchTestModel(13, 70, 200)
	opts := Options{BurnIn: 80, Thin: 15, Samples: 100}
	const seed = 321
	sources := make([]graph.NodeID, 65)
	for i := range sources {
		sources[i] = graph.NodeID(i % m.NumNodes())
	}
	batch, err := CommunityFlowProbsBatch(m, sources, nil, opts, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check a handful of sources (every source would re-run the
	// chain 65 times); include both chunks and the duplicated source.
	for _, k := range []int{0, 1, 63, 64} {
		single, err := CommunityFlowProbs(m, sources[k], nil, opts, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for v := range single {
			if batch[k][v] != single[v] {
				t.Fatalf("source %d node %d: batch %v != single %v", k, v, batch[k][v], single[v])
			}
		}
	}
}

// TestFlowProbBatchWideMatchesPerPair pins the width-invariance half of
// the determinism contract: the lane-mask width only changes how
// queries chunk onto sweeps, so for every explicit W (including widths
// that leave the top word ragged — 70 pairs at W=2 fills 70 of 128
// lanes) the batch must still equal per-pair FlowProb bit for bit.
func TestFlowProbBatchWideMatchesPerPair(t *testing.T) {
	m := batchTestModel(21, 30, 80)
	opts := Options{BurnIn: 100, Thin: 20, Samples: 120}
	const seed = 77
	pairs := randomPairs(rng.New(7), m.NumNodes(), 70)
	single := make([]float64, len(pairs))
	for k, pair := range pairs {
		p, err := FlowProb(m, pair.Source, pair.Sink, nil, opts, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		single[k] = p
	}
	for _, words := range []int{1, 2, 4, 8} {
		batch, err := FlowProbBatchWide(m, pairs, nil, opts, words, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for k := range pairs {
			if batch[k] != single[k] {
				t.Errorf("W=%d pair %d: batch %v != per-pair %v", words, k, batch[k], single[k])
			}
		}
	}
	if _, err := FlowProbBatchWide(m, pairs, nil, opts, MaxLaneWords+1, rng.New(seed)); err == nil {
		t.Errorf("FlowProbBatchWide accepted width %d > MaxLaneWords", MaxLaneWords+1)
	}
}

// TestCommunityFlowProbsBatchWideWidthInvariance repeats the width
// sweep for the community estimator: 65 sources at W ∈ {1, 2} (two
// chunks then one) must agree with the auto-width result everywhere.
func TestCommunityFlowProbsBatchWideWidthInvariance(t *testing.T) {
	m := batchTestModel(22, 40, 110)
	opts := Options{BurnIn: 80, Thin: 15, Samples: 80}
	const seed = 55
	sources := make([]graph.NodeID, 65)
	for i := range sources {
		sources[i] = graph.NodeID(i % m.NumNodes())
	}
	want, err := CommunityFlowProbsBatch(m, sources, nil, opts, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range []int{1, 2} {
		got, err := CommunityFlowProbsBatchWide(m, sources, nil, opts, words, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			for v := range want[k] {
				if got[k][v] != want[k][v] {
					t.Fatalf("W=%d source %d node %d: %v != auto-width %v", words, k, v, got[k][v], want[k][v])
				}
			}
		}
	}
	if _, err := CommunityFlowProbsBatchWide(m, sources, nil, opts, MaxLaneWords+1, rng.New(seed)); err == nil {
		t.Errorf("CommunityFlowProbsBatchWide accepted width %d > MaxLaneWords", MaxLaneWords+1)
	}
}

// TestStateBitsShadowsState pins the packed-shadow invariant: after any
// number of accepted and rejected steps, StateBits equals the []bool
// state bit for bit — including under conditions, whose rejected
// candidate flips must not leak into the shadow.
func TestStateBitsShadowsState(t *testing.T) {
	m := batchTestModel(14, 25, 70)
	check := func(name string, conds []core.FlowCondition) {
		s, err := NewSampler(m, conds, rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3000; step++ {
			s.Step()
			if step%250 != 0 {
				continue
			}
			want := bitset.FromBools(nil, s.State())
			got := s.StateBits()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: step %d: shadow word %d = %#x, want %#x", name, step, i, got[i], want[i])
				}
			}
		}
	}
	check("unconditioned", nil)
	x := core.NewPseudoState(m.NumEdges())
	for i := range x {
		x[i] = m.P[i] > 0
	}
	sink := graph.NodeID(1)
	check("conditioned", []core.FlowCondition{{Source: 0, Sink: sink, Require: m.HasFlow(0, sink, x)}})
}

// TestFlowProbBatchRejectsEmpty covers the argument guards.
func TestFlowProbBatchRejectsEmpty(t *testing.T) {
	m := batchTestModel(15, 10, 20)
	opts := Options{BurnIn: 10, Thin: 5, Samples: 10}
	if _, err := FlowProbBatch(m, nil, nil, opts, rng.New(1)); err == nil {
		t.Error("FlowProbBatch(nil pairs) succeeded")
	}
	if _, err := CommunityFlowProbsBatch(m, nil, nil, opts, rng.New(1)); err == nil {
		t.Error("CommunityFlowProbsBatch(nil sources) succeeded")
	}
	if _, err := FlowProbBatch(m, []FlowPair{{0, 1}}, nil, Options{}, rng.New(1)); err == nil {
		t.Error("FlowProbBatch with invalid options succeeded")
	}
}

// TestFlowProbBatchZeroAllocSteadyState asserts the batched hot loop —
// chain updates plus FlowProbBatchWideOn's per-sample body, one
// ReachLanesWideInto sweep per chunk of pairs — allocates nothing once
// warm. 130 pairs at W=1 forces three chunks, so the multi-chunk path
// is covered too.
func TestFlowProbBatchZeroAllocSteadyState(t *testing.T) {
	m := batchTestModel(16, 300, 900)
	s, err := NewSampler(m, nil, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	pairs := randomPairs(rng.New(10), m.NumNodes(), 130)
	sample := batchSample(s, pairs, 1, 10)
	for warm := 0; warm < 10; warm++ {
		sample()
	}
	if allocs := testing.AllocsPerRun(100, sample); allocs != 0 {
		t.Errorf("steady-state batched sampling allocates %v per run, want 0", allocs)
	}
}

// batchSample prepares s's lanes for pairs at the given width and
// returns one steady-state batched output sample: thin chain updates
// plus FlowProbBatchWideOn's per-sample sweeps and hit counting.
func batchSample(s *Sampler, pairs []FlowPair, words, thin int) func() {
	nChunks := s.prepareLanes(len(pairs), words, func(q int) graph.NodeID { return pairs[q].Source })
	return func() {
		for k := 0; k < thin; k++ {
			s.Step()
		}
		s.countFlowHits(pairs, words, nChunks)
	}
}

// benchBatchSample times batchSample after one warm-up sample;
// allocs/op must read 0.
func benchBatchSample(b *testing.B, s *Sampler, pairs []FlowPair, words, thin int) {
	sample := batchSample(s, pairs, words, thin)
	sample()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sample()
	}
}

// benchPairs64 draws the 64 benchmark queries on the §IV-C graph.
func benchPairs64(m *core.ICM) []FlowPair {
	return randomPairs(rng.New(17), m.NumNodes(), 64)
}

// BenchmarkFlowProbBatch64 measures one steady-state batched output
// sample on the §IV-C 6K-node/14K-edge graph: thin chain updates plus
// ONE 64-lane (W = 1) sweep answering all 64 pairs. Compare per-op time
// against BenchmarkFlowProbSequential64 (the same work done by 64
// independent chains) for the batching speedup; allocs/op must read 0.
func BenchmarkFlowProbBatch64(b *testing.B) {
	m, s := paperScaleSampler(b)
	benchBatchSample(b, s, benchPairs64(m), 1, 200)
}

// BenchmarkFlowProbBatch512 measures one steady-state batched output
// sample for 512 pairs on the §IV-C graph: thin chain updates plus ONE
// 8-word wide-lane sweep answering all 512 pairs. Divide ns/op by 512
// for the per-query figure; compare against
// BenchmarkFlowProbBatch512Chunks64, which serves the same 512 pairs as
// eight 64-lane sweeps per sample. allocs/op must read 0.
func BenchmarkFlowProbBatch512(b *testing.B) {
	m, s := paperScaleSampler(b)
	benchBatchSample(b, s, randomPairs(rng.New(17), m.NumNodes(), 512), 8, 200)
}

// BenchmarkFlowProbBatch512Chunks64 is the narrow baseline for the same
// workload: 512 pairs served by EIGHT chunked 64-lane (W = 1) sweeps per
// thinned sample, each paying its own Tarjan pass, sharing one chain.
func BenchmarkFlowProbBatch512Chunks64(b *testing.B) {
	m, s := paperScaleSampler(b)
	benchBatchSample(b, s, randomPairs(rng.New(17), m.NumNodes(), 512), 1, 200)
}

// BenchmarkFlowProbBatch256Served measures one batched output sample at
// the schedule the server runs, in the shape of a served /flow batch:
// 256 pairs in one 4-word sweep, Thin = NumEdges chain updates between
// sweeps, on the §IV-C model the serving benchmark uses (graph.Random
// 6000/14000 from seed 2, p = 0.2 + 0.4U). The chain is burnt in first
// (BurnIn = 4*Thin, as DefaultOptions sets it). allocs/op must read 0.
func BenchmarkFlowProbBatch256Served(b *testing.B) {
	r := rng.New(2)
	g := graph.Random(r, 6000, 14000)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 0.2 + 0.4*r.Float64()
	}
	m := core.MustNewICM(g, p)
	s, err := NewSampler(m, nil, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions(m.NumEdges())
	for k := 0; k < opts.BurnIn; k++ {
		s.Step()
	}
	benchBatchSample(b, s, randomPairs(rng.New(17), m.NumNodes(), 256), 4, opts.Thin)
}

// BenchmarkFlowProbSequential64 is the sequential baseline the batch is
// judged against: 64 per-pair chains, each paying its own thin updates
// and scalar flow test per output sample — what 64 FlowProb calls cost
// at equal sample counts.
func BenchmarkFlowProbSequential64(b *testing.B) {
	m, _ := paperScaleSampler(b)
	const thin = 200
	pairs := benchPairs64(m)
	seeder := rng.New(18)
	samplers := make([]*Sampler, len(pairs))
	for i := range samplers {
		s, err := NewSampler(m, nil, seeder.Fork())
		if err != nil {
			b.Fatal(err)
		}
		samplers[i] = s
		for k := 0; k < thin; k++ {
			s.Step()
		}
		m.HasFlowScratch(pairs[i].Source, pairs[i].Sink, s.State(), s.scratch)
	}
	hits := make([]int, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q, pair := range pairs {
			s := samplers[q]
			for k := 0; k < thin; k++ {
				s.Step()
			}
			if m.HasFlowScratch(pair.Source, pair.Sink, s.State(), s.scratch) {
				hits[q]++
			}
		}
	}
}

// TestImpactDistributionBatchMatchesScalar: a set's lane-union popcount
// per thinned sample must reproduce the scalar ImpactDistribution of the
// same seed exactly, sample for sample, for every co-batched set — and
// regardless of how many other sets share the sweep. 12 sets of up to 8
// sources push the flattened lane count past one 64-lane word.
func TestImpactDistributionBatchMatchesScalar(t *testing.T) {
	m := batchTestModel(21, 30, 80)
	opts := Options{BurnIn: 100, Thin: 20, Samples: 120}
	const seed = 77
	r := rng.New(6)
	sets := make([][]graph.NodeID, 12)
	for i := range sets {
		width := 1 + r.Intn(8)
		set := make([]graph.NodeID, width)
		for j := range set {
			set[j] = graph.NodeID(r.Intn(m.NumNodes()))
		}
		if i%3 == 0 && width > 1 {
			set[width-1] = set[0] // duplicate source: must not change the answer
		}
		sets[i] = set
	}
	batch, err := ImpactDistributionBatch(m, sets, nil, opts, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(sets) {
		t.Fatalf("batch returned %d series for %d sets", len(batch), len(sets))
	}
	for i, set := range sets {
		scalar, err := ImpactDistribution(m, set, nil, opts, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i]) != len(scalar) {
			t.Fatalf("set %d: batch has %d samples, scalar %d", i, len(batch[i]), len(scalar))
		}
		for k := range scalar {
			if batch[i][k] != scalar[k] {
				t.Fatalf("set %d sample %d: batch impact %d != scalar %d", i, k, batch[i][k], scalar[k])
			}
		}
	}
}

func TestImpactDistributionBatchRejectsBadSets(t *testing.T) {
	m := batchTestModel(22, 10, 20)
	opts := Options{BurnIn: 10, Thin: 5, Samples: 10}
	if _, err := ImpactDistributionBatch(m, nil, nil, opts, rng.New(1)); err == nil {
		t.Error("no sets accepted")
	}
	if _, err := ImpactDistributionBatch(m, [][]graph.NodeID{{}}, nil, opts, rng.New(1)); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := ImpactDistributionBatch(m, [][]graph.NodeID{{0, 99}}, nil, opts, rng.New(1)); err == nil {
		t.Error("out-of-range source accepted")
	}
}
