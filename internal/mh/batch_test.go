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
// same seed — hit count for hit count — at a short thinning interval
// and at the served one.
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
// community variant against CommunityFlowProbs source by source, over
// 65 sources with one duplicated.
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

// tallyModel draws a 60-node, 150-edge random model whose edge
// probabilities are uniform in [lo, hi).
func tallyModel(seed uint64, lo, hi float64) *core.ICM {
	r := rng.New(seed)
	g := graph.Random(r, 60, 150)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = r.Uniform(lo, hi)
	}
	return core.MustNewICM(g, p)
}

// transposed rebuilds g with every edge u->v re-added as v->u, in
// EdgeID order, so one packed mask describes the same pseudo-state in
// both graphs.
func transposed(t *testing.T, g *graph.DiGraph) *graph.DiGraph {
	t.Helper()
	gt := graph.New(g.NumNodes())
	for _, e := range g.Edges() {
		if _, err := gt.AddEdge(e.To, e.From); err != nil {
			t.Fatal(err)
		}
	}
	return gt
}

// TestTalliesMatchClosure checks every estimator tally, state by state,
// against the closure traversals: countFlows against HasPath,
// countReached and countImpacts against Reachable, and coverRoots
// against Reachable on the transposed graph. The states are the thinned
// samples of chains on a near-critical and a supercritical model, with
// and without a required flow, and every batch holds more than 64
// queries.
func TestTalliesMatchClosure(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *core.ICM
	}{
		{name: "near-critical", m: tallyModel(81, 0.3, 0.5)},
		{name: "supercritical", m: tallyModel(82, 0.5, 1)},
	} {
		m, g := tc.m, tc.m.G
		n := m.NumNodes()
		gt := transposed(t, g)
		r := rng.New(83)
		pairs := randomPairs(r, n, 70)
		sources := pairSources(pairs)
		sets := make([][]graph.NodeID, 20)
		for i := range sets {
			sets[i], _ = core.DedupSources(n, sources[i:i+1+i%5])
		}
		const base = 30 // the roots' bits straddle a cover word
		roots := sources
		var required []core.FlowCondition
		for v := graph.NodeID(1); int(v) < n && required == nil; v++ {
			if m.HasFlow(0, v, maximalState(m)) {
				required = []core.FlowCondition{{Source: 0, Sink: v, Require: true}}
			}
		}
		for _, conds := range [][]core.FlowCondition{nil, required} {
			s, err := NewSampler(m, conds, rng.New(84))
			if err != nil {
				t.Fatal(err)
			}
			reached := bitset.New(n)
			hits := make([]int, len(pairs))
			counts := make([][]int, len(sources))
			for k := range counts {
				counts[k] = make([]int, n)
			}
			impacts := make([][]int, len(sets))
			cover := bitset.NewSparseRows(n, base+len(roots))
			sample := 0
			err = s.Run(Options{BurnIn: 200, Thin: 30, Samples: 40}, func(x core.PseudoState) {
				active := func(id graph.EdgeID) bool { return x.Test(int(id)) }
				where := fmt.Sprintf("%s conds=%d sample %d", tc.name, len(conds), sample)
				sample++

				clear(hits)
				countFlows(g, pairs, x, s.scratch, hits)
				for q, p := range pairs {
					if want := g.HasPath(p.Source, p.Sink, active); (hits[q] == 1) != want {
						t.Fatalf("%s: pair %d (%d~>%d) counted %d, HasPath %v", where, q, p.Source, p.Sink, hits[q], want)
					}
				}

				for _, c := range counts {
					clear(c)
				}
				countReached(g, sources, x, s.scratch, reached, counts)
				for k, src := range sources {
					want := g.Reachable([]graph.NodeID{src}, active)
					for v := range want {
						if (counts[k][v] == 1) != want[v] {
							t.Fatalf("%s: source %d node %d counted %d, Reachable %v", where, src, v, counts[k][v], want[v])
						}
					}
				}

				for i := range impacts {
					impacts[i] = impacts[i][:0]
				}
				countImpacts(g, sets, x, s.scratch, reached, impacts)
				for i, set := range sets {
					want := -len(set)
					for _, ok := range g.Reachable(set, active) {
						if ok {
							want++
						}
					}
					if impacts[i][0] != want {
						t.Fatalf("%s: set %v impact %d, Reachable %d", where, set, impacts[i][0], want)
					}
				}

				cover.Reset()
				coverRoots(g, roots, x, s.scratch, reached, cover, base)
				cover.Seal()
				for b := 0; b < cover.Cols(); b++ {
					var want []bool
					if b >= base && b < base+len(roots) {
						want = gt.Reachable([]graph.NodeID{roots[b-base]}, active)
					}
					for u := 0; u < n; u++ {
						if got := cover.TestBit(u, b); got != (want != nil && want[u]) {
							t.Fatalf("%s: cover bit %d node %d is %v, transposed Reachable %v", where, b, u, got, !got)
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
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
// loop — chain updates plus one estimator's per-sample tally — allocates
// nothing once warm: the flow, community and impact tallies, each over
// 130 queries, and a refill of the RR pool's cover for 128 roots.
func TestFlowProbBatchZeroAllocSteadyState(t *testing.T) {
	m := batchTestModel(16, 300, 900)
	n := m.NumNodes()
	pairs := randomPairs(rng.New(10), n, 130)
	sources := pairSources(pairs)
	reached := bitset.New(n)
	check := func(name string, tally func(s *Sampler)) {
		t.Helper()
		s, err := NewSampler(m, nil, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		sample := func() {
			for k := 0; k < 10; k++ {
				s.Step()
			}
			tally(s)
		}
		for warm := 0; warm < 10; warm++ {
			sample()
		}
		if allocs := testing.AllocsPerRun(100, sample); allocs != 0 {
			t.Errorf("%s: steady-state batched sampling allocates %v per run, want 0", name, allocs)
		}
	}

	hits := make([]int, len(pairs))
	check("flow", func(s *Sampler) { countFlows(m.G, pairs, s.x, s.scratch, hits) })
	counts := make([][]int, len(sources))
	for k := range counts {
		counts[k] = make([]int, n)
	}
	check("community", func(s *Sampler) { countReached(m.G, sources, s.x, s.scratch, reached, counts) })
	sets := [][]graph.NodeID{sources[:60], sources[60:70], sources[70:]}
	for i, set := range sets {
		sets[i], _ = core.DedupSources(n, set)
	}
	impacts := make([][]int, len(sets))
	for i := range impacts {
		impacts[i] = make([]int, 0, 1)
	}
	check("impact", func(s *Sampler) {
		for i := range impacts {
			impacts[i] = impacts[i][:0]
		}
		countImpacts(m.G, sets, s.x, s.scratch, reached, impacts)
	})

	// An RR cover stages sets as they arrive (SparseRows.AppendColumn),
	// so its steady state is a refill: covering one state again after a
	// Reset finds the staging and every dense row's words in place and
	// allocates nothing.
	s, err := NewSampler(m, nil, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 100; k++ {
		s.Step()
	}
	roots := sources[:128]
	cover := bitset.NewSparseRows(n, len(roots))
	refill := func() {
		cover.Reset()
		coverRoots(m.G, roots, s.x, s.scratch, reached, cover, 0)
	}
	refill()
	if allocs := testing.AllocsPerRun(100, refill); allocs != 0 {
		t.Errorf("rr pool: refilling the cover allocates %v per run, want 0", allocs)
	}
}

// batchSample returns one steady-state batched output sample: thin
// chain updates plus FlowProbBatch's per-sample tally over pairs.
func batchSample(s *Sampler, pairs []FlowPair, thin int) func() {
	hits := make([]int, len(pairs))
	return func() {
		for k := 0; k < thin; k++ {
			s.Step()
		}
		countFlows(s.m.G, pairs, s.x, s.scratch, hits)
	}
}

// benchBatchSample times batchSample after one warm-up sample;
// allocs/op must read 0.
func benchBatchSample(b *testing.B, s *Sampler, pairs []FlowPair, thin int) {
	sample := batchSample(s, pairs, thin)
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
// one early-exit search per pair for 64 pairs. Compare per-op time
// against BenchmarkFlowProbSequential64 (the same work done by 64
// independent chains) for the batching speedup; allocs/op must read 0.
func BenchmarkFlowProbBatch64(b *testing.B) {
	m, s := paperScaleSampler(b)
	benchBatchSample(b, s, benchPairs64(m), 200)
}

// BenchmarkFlowProbBatch512 measures one steady-state batched output
// sample for 512 pairs on the §IV-C graph: thin chain updates plus 512
// early-exit searches. Divide ns/op by 512 for the per-query figure.
// allocs/op must read 0.
func BenchmarkFlowProbBatch512(b *testing.B) {
	m, s := paperScaleSampler(b)
	benchBatchSample(b, s, randomPairs(rng.New(17), m.NumNodes(), 512), 200)
}

// BenchmarkFlowProbBatch256Served measures one batched output sample at
// the schedule the server runs, in the shape of a served /flow batch:
// 256 pairs, Thin = NumEdges chain updates between tallies, on the
// §IV-C model the serving benchmark uses (graph.Random 6000/14000 from
// seed 2, p = 0.2 + 0.4U). The chain is burnt in first (BurnIn =
// 4*Thin, as DefaultOptions sets it). allocs/op must read 0.
func BenchmarkFlowProbBatch256Served(b *testing.B) {
	m := servedModel()
	s := servedSampler(b, m, nil)
	benchBatchSample(b, s, randomPairs(rng.New(17), m.NumNodes(), 256), DefaultOptions(m.NumEdges()).Thin)
}

// supercriticalModel is servedModel's graph with p = 0.5 + 0.5U: past
// the percolation threshold, where a source reaches thousands of nodes
// and a per-query traversal pays for every one of them.
func supercriticalModel() *core.ICM {
	r := rng.New(2)
	g := graph.Random(r, 6000, 14000)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 0.5 + 0.5*r.Float64()
	}
	return core.MustNewICM(g, p)
}

// benchTally times tally on one burnt-in state of a chain on m, with no
// chain steps between iterations: the per-thinned-state traversal cost
// of one batch. allocs/op must read 0.
func benchTally(b *testing.B, m *core.ICM, tally func(s *Sampler)) {
	s := servedSampler(b, m, nil)
	tally(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tally(s)
	}
}

// BenchmarkCommunity32Supercritical times the community tally of a
// 32-source batch on one state of supercriticalModel: 32 packed BFS
// runs that each reach most of the giant component.
func BenchmarkCommunity32Supercritical(b *testing.B) {
	m := supercriticalModel()
	sources := pairSources(randomPairs(rng.New(17), m.NumNodes(), 32))
	counts := make([][]int, len(sources))
	for k := range counts {
		counts[k] = make([]int, m.NumNodes())
	}
	reached := bitset.New(m.NumNodes())
	benchTally(b, m, func(s *Sampler) { countReached(m.G, sources, s.x, s.scratch, reached, counts) })
}

// BenchmarkRRRoots256Supercritical times the RR cover tally of one
// /maximize pool sample (256 roots) on one state of supercriticalModel:
// 256 reverse packed BFS runs, each appending its set to the rows of
// the nodes it reaches, after a Reset of the 256-set cover. A node here
// belongs to about half the sets, so the warm-up tally switches most
// rows to dense words and the timed ones append on the dense side.
func BenchmarkRRRoots256Supercritical(b *testing.B) {
	m := supercriticalModel()
	roots := pairSources(randomPairs(rng.New(17), m.NumNodes(), DefaultRootsPerSample))
	cover := bitset.NewSparseRows(m.NumNodes(), len(roots))
	reached := bitset.New(m.NumNodes())
	benchTally(b, m, func(s *Sampler) {
		cover.Reset()
		coverRoots(m.G, roots, s.x, s.scratch, reached, cover, 0)
	})
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

// BenchmarkSamplerClone measures what a served batch that begins from a
// kept chain start pays for its chain: a runnable clone of a burned-in
// chain on the served fixture under servedEvidence (fresh scratch,
// recomputed proposal weights, restored tree). A batch that misses pays
// BenchmarkNewSamplerConditioned and 4*NumEdges burn-in steps instead.
func BenchmarkSamplerClone(b *testing.B) {
	m := servedModel()
	kept := servedSampler(b, m, servedEvidence(m)).Keep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = kept.Clone()
	}
}

// cloneSink keeps BenchmarkSamplerClone's clones live, so the compiler
// cannot drop the call.
var cloneSink *Sampler

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

// TestImpactDistributionBatchMatchesScalar: a set's impact per thinned
// sample must reproduce the scalar ImpactDistribution of the same seed
// exactly, sample for sample, for every co-batched set — and regardless
// of how many other sets share the chain.
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
