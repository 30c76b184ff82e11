package mh

import (
	"fmt"
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
	x := maximalState(m)
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

// pairSources lists the source of every pair, in order.
func pairSources(pairs []FlowPair) []graph.NodeID {
	sources := make([]graph.NodeID, len(pairs))
	for q, p := range pairs {
		sources[q] = p.Source
	}
	return sources
}

// runLanes places seeds on l at the given width and runs tally on every
// thinned state of a fresh unconditioned chain from seed: a batch
// estimator's body with its width chosen by the caller.
func runLanes(t *testing.T, m *core.ICM, l *laneLayout, seeds []graph.NodeID, words int, opts Options, seed uint64, tally func(x bitset.Set, sc *graph.Scratch)) {
	t.Helper()
	if err := l.place(m, seeds, words); err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(m, nil, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(opts, func(x core.PseudoState) { tally(x, s.scratch) }); err != nil {
		t.Fatal(err)
	}
}

// laneWidths are the widths the width-invariance tests place queries
// at: 70 or 65 queries leave the top word ragged at every width above
// 1, and split into two chunks at width 1.
var laneWidths = []int{1, 2, 4, 8}

// TestFlowProbBatchWideMatchesPerPair pins the width-invariance half of
// the determinism contract: the lane-mask width only changes how
// queries chunk onto sweeps, so for every width (including widths that
// leave the top word ragged — 70 pairs at W=2 fills 70 of 128 lanes)
// FlowProbBatch's tally must still equal per-pair FlowProb bit for bit.
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
	for _, words := range laneWidths {
		var l laneLayout
		hits := make([]int, len(pairs))
		runLanes(t, m, &l, pairSources(pairs), words, opts, seed, func(x bitset.Set, sc *graph.Scratch) {
			l.countFlows(pairs, x, sc, hits)
		})
		for k, h := range hits {
			if got := float64(h) / float64(opts.Samples); got != single[k] {
				t.Errorf("W=%d pair %d: batch %v != per-pair %v", words, k, got, single[k])
			}
		}
	}
}

// TestCommunityFlowProbsBatchWideWidthInvariance repeats the width
// sweep for the community tally: 65 sources at every width must agree
// with CommunityFlowProbsBatch's auto-width result everywhere.
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
	for _, words := range laneWidths {
		var l laneLayout
		counts := make([][]int, len(sources))
		for k := range counts {
			counts[k] = make([]int, m.NumNodes())
		}
		runLanes(t, m, &l, sources, words, opts, seed, func(x bitset.Set, sc *graph.Scratch) {
			l.countReached(x, sc, counts)
		})
		for k := range want {
			for v := range want[k] {
				if got := float64(counts[k][v]) / float64(opts.Samples); got != want[k][v] {
					t.Fatalf("W=%d source %d node %d: %v != auto-width %v", words, k, v, got, want[k][v])
				}
			}
		}
	}
}

// TestImpactDistributionBatchWidthInvariance repeats the width sweep for
// the impact tally. Ten sets of seven distinct sources fill 70 lanes,
// so at W=1 the last set straddles the chunk boundary (lanes 63..69):
// its impact is the union of lanes from two chunks' reach matrices.
// Every width must reproduce the scalar ImpactDistribution of each set.
func TestImpactDistributionBatchWidthInvariance(t *testing.T) {
	m := batchTestModel(23, 40, 110)
	opts := Options{BurnIn: 80, Thin: 15, Samples: 60}
	const seed = 57
	const sets, width = 10, 7
	var flat []graph.NodeID
	spans := make([]laneSpan, sets)
	for i := range spans {
		spans[i] = laneSpan{lo: len(flat), hi: len(flat) + width}
		for j := 0; j < width; j++ {
			flat = append(flat, graph.NodeID((3*i+j)%m.NumNodes()))
		}
	}
	want := make([][]int, sets)
	for i, sp := range spans {
		scalar, err := ImpactDistribution(m, flat[sp.lo:sp.hi], nil, opts, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = scalar
	}
	for _, words := range laneWidths {
		l := laneLayout{perChunk: true}
		impacts := make([][]int, sets)
		runLanes(t, m, &l, flat, words, opts, seed, func(x bitset.Set, sc *graph.Scratch) {
			l.countImpacts(spans, x, sc, impacts)
		})
		for i := range want {
			for k := range want[i] {
				if impacts[i][k] != want[i][k] {
					t.Fatalf("W=%d set %d sample %d: batch impact %d != scalar %d", words, i, k, impacts[i][k], want[i][k])
				}
			}
		}
	}
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

// TestFlowProbBatchZeroAllocSteadyState asserts that every batched hot
// loop — chain updates plus one estimator's per-sample sweeps and tally
// — allocates nothing once warm: the flow, community and impact tallies
// and the RR pool's cover. 130 queries at W=1 force three chunks, so
// the multi-chunk path is covered too, and one impact set straddles a
// chunk boundary.
func TestFlowProbBatchZeroAllocSteadyState(t *testing.T) {
	m := batchTestModel(16, 300, 900)
	pairs := randomPairs(rng.New(10), m.NumNodes(), 130)
	sources := pairSources(pairs)
	check := func(name string, l laneLayout, seeds []graph.NodeID, tally func(l *laneLayout, s *Sampler)) {
		t.Helper()
		if err := l.place(m, seeds, 1); err != nil {
			t.Fatal(err)
		}
		s, err := NewSampler(m, nil, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		sample := func() {
			for k := 0; k < 10; k++ {
				s.Step()
			}
			tally(&l, s)
		}
		for warm := 0; warm < 10; warm++ {
			sample()
		}
		if allocs := testing.AllocsPerRun(100, sample); allocs != 0 {
			t.Errorf("%s: steady-state batched sampling allocates %v per run, want 0", name, allocs)
		}
	}

	hits := make([]int, len(pairs))
	check("flow", laneLayout{}, sources, func(l *laneLayout, s *Sampler) {
		l.countFlows(pairs, s.x, s.scratch, hits)
	})
	counts := make([][]int, len(sources))
	for k := range counts {
		counts[k] = make([]int, m.NumNodes())
	}
	check("community", laneLayout{}, sources, func(l *laneLayout, s *Sampler) {
		l.countReached(s.x, s.scratch, counts)
	})
	spans := []laneSpan{{0, 60}, {60, 70}, {70, 130}}
	impacts := make([][]int, len(spans))
	for i := range impacts {
		impacts[i] = make([]int, 0, 1)
	}
	check("impact", laneLayout{perChunk: true}, sources, func(l *laneLayout, s *Sampler) {
		for i := range impacts {
			impacts[i] = impacts[i][:0]
		}
		l.countImpacts(spans, s.x, s.scratch, impacts)
	})
	roots := sources[:128]
	cover := bitset.NewLaneMatrix(m.NumNodes(), len(roots)/LaneWidth)
	check("rr pool", laneLayout{reverse: true}, roots, func(l *laneLayout, s *Sampler) {
		l.coverRoots(roots, s.x, s.scratch, cover, 0)
	})
}

// batchSample places pairs on a layout of the given width and returns
// one steady-state batched output sample: thin chain updates plus
// FlowProbBatch's per-sample sweeps and hit counting.
func batchSample(tb testing.TB, s *Sampler, pairs []FlowPair, words, thin int) func() {
	var l laneLayout
	if err := l.place(s.m, pairSources(pairs), words); err != nil {
		tb.Fatal(err)
	}
	hits := make([]int, len(pairs))
	return func() {
		for k := 0; k < thin; k++ {
			s.Step()
		}
		l.countFlows(pairs, s.x, s.scratch, hits)
	}
}

// benchBatchSample times batchSample after one warm-up sample;
// allocs/op must read 0.
func benchBatchSample(b *testing.B, s *Sampler, pairs []FlowPair, words, thin int) {
	sample := batchSample(b, s, pairs, words, thin)
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
	m := servedModel()
	s := servedSampler(b, m, nil)
	benchBatchSample(b, s, randomPairs(rng.New(17), m.NumNodes(), 256), 4, DefaultOptions(m.NumEdges()).Thin)
}

// BenchmarkChainUpdateConditioned measures one chain update on the
// served fixture under a cond_pages-shaped evidence set: one required
// flow and two forbidden ones. Every proposal that passes the
// Metropolis-Hastings test flips one bit of the packed state and pays
// one bidirectional search per condition whose certificate the flip
// touches (see keepsConds). allocs/op must read 0.
func BenchmarkChainUpdateConditioned(b *testing.B) {
	m := servedModel()
	benchSteps(b, servedSampler(b, m, servedEvidence(m)))
}

// BenchmarkChainUpdateConditionedSets is BenchmarkChainUpdateConditioned
// under one evidence set per sub-benchmark, drawn by servedEvidenceFrom
// from a fixed seed: how often a flip touches a certificate, and what
// the search then costs, differ from set to set. allocs/op must read 0.
func BenchmarkChainUpdateConditionedSets(b *testing.B) {
	m := servedModel()
	for seed := uint64(1); seed <= 8; seed++ {
		b.Run(fmt.Sprintf("seed=%d", seed), func(b *testing.B) {
			benchSteps(b, servedSampler(b, m, servedEvidenceFrom(m, seed)))
		})
	}
}

// benchSteps times s.Step, reporting allocations.
func benchSteps(b *testing.B, s *Sampler) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkChainUpdateServed measures one unconditioned chain update on
// the served fixture, burnt in as BenchmarkChainUpdateConditioned is:
// the step every unconditioned served batch runs Thin = NumEdges times
// per output sample. allocs/op must read 0.
func BenchmarkChainUpdateServed(b *testing.B) {
	benchSteps(b, servedSampler(b, servedModel(), nil))
}

// BenchmarkNewSamplerConditioned measures building a conditioned chain
// on the served fixture under servedEvidence from the seed
// servedSampler uses, where every one of the rejectionTries marginal
// draws misses the evidence: the constructor pays all of them, then
// the constructive repair. The setup checks that the tries all fail.
func BenchmarkNewSamplerConditioned(b *testing.B) {
	m := servedModel()
	conds := servedEvidence(m)
	r := rng.New(3)
	for t := 0; t < rejectionTries; t++ {
		if m.Satisfies(m.SamplePseudoState(r), conds) {
			b.Fatalf("rejection try %d satisfies the evidence", t)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSampler(m, conds, rng.New(3)); err != nil {
			b.Fatal(err)
		}
	}
}

// servedModel is the §IV-C model the serving benchmark builds:
// graph.Random 6000/14000 from seed 2, p = 0.2 + 0.4U.
func servedModel() *core.ICM {
	r := rng.New(2)
	g := graph.Random(r, 6000, 14000)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 0.2 + 0.4*r.Float64()
	}
	return core.MustNewICM(g, p)
}

// servedSampler returns a chain on m under conds, burnt in for
// DefaultOptions' BurnIn (4*NumEdges steps), as the server runs it.
func servedSampler(b *testing.B, m *core.ICM, conds []core.FlowCondition) *Sampler {
	b.Helper()
	s, err := NewSampler(m, conds, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < DefaultOptions(m.NumEdges()).BurnIn; k++ {
		s.Step()
	}
	return s
}

// servedEvidence draws one required flow and two forbidden flows over
// six distinct nodes, each pair connected in the full graph, redrawing
// until a sampler can satisfy the set.
func servedEvidence(m *core.ICM) []core.FlowCondition { return servedEvidenceFrom(m, 19) }

// servedEvidenceFrom is servedEvidence drawn from the given seed.
func servedEvidenceFrom(m *core.ICM, seed uint64) []core.FlowCondition {
	r := rng.New(seed)
	for {
		used := map[graph.NodeID]bool{}
		var conds []core.FlowCondition
		for len(conds) < 3 {
			u, v := graph.NodeID(r.Intn(m.NumNodes())), graph.NodeID(r.Intn(m.NumNodes()))
			if u == v || used[u] || used[v] || !m.G.HasPath(u, v, graph.AllEdges) {
				continue
			}
			used[u], used[v] = true, true
			conds = append(conds, core.FlowCondition{Source: u, Sink: v, Require: len(conds) == 0})
		}
		if _, err := NewSampler(m, conds, rng.New(1)); err == nil {
			return conds
		}
	}
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
	// A negative sample count used to size the result before Run
	// validated it, and panicked.
	bad := Options{BurnIn: 10, Thin: 5, Samples: -1}
	if _, err := ImpactDistributionBatch(m, [][]graph.NodeID{{0}}, nil, bad, rng.New(1)); err == nil {
		t.Error("ImpactDistributionBatch accepted Samples < 0")
	}
	if _, err := ImpactDistribution(m, []graph.NodeID{0}, nil, bad, rng.New(1)); err == nil {
		t.Error("ImpactDistribution accepted Samples < 0")
	}
}
