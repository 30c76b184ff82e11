package influence

import (
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// TestGreedyPermutationInvariance is the regression gate for the
// gain-only heap order: Greedy must return a bit-identical Result for
// every permutation of the candidate list (including one with
// duplicates), given the same entry RNG state. Before the (gain, round,
// node) total order and the per-(node, round) evaluation streams,
// equal-gain candidates popped in heap-internal order and the seed set
// depended on insertion order.
func TestGreedyPermutationInvariance(t *testing.T) {
	r := rng.New(61)
	g := graph.PreferentialAttachment(r, 60, 2, 0.3)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 0.3
	}
	m := core.MustNewICM(g, p)
	n := m.NumNodes()
	base := make([]graph.NodeID, n)
	for v := range base {
		base[v] = graph.NodeID(v)
	}
	ref, err := Greedy(m, 4, Options{Samples: 60, Candidates: base}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.New(62)
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]graph.NodeID{}, base...)
		perm.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if trial == 4 { // duplicates must be ignored, not double-selected
			shuffled = append(shuffled, shuffled[:10]...)
		}
		res, err := Greedy(m, 4, Options{Samples: 60, Candidates: shuffled}, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Seeds) != len(ref.Seeds) {
			t.Fatalf("trial %d: %d seeds, want %d", trial, len(res.Seeds), len(ref.Seeds))
		}
		for i := range ref.Seeds {
			if res.Seeds[i] != ref.Seeds[i] {
				t.Fatalf("trial %d: seeds %v, want %v (candidate order leaked into selection)",
					trial, res.Seeds, ref.Seeds)
			}
			if res.MarginalGains[i] != ref.MarginalGains[i] {
				t.Fatalf("trial %d: gains %v, want %v", trial, res.MarginalGains, ref.MarginalGains)
			}
		}
		if res.SpreadEstimate != ref.SpreadEstimate {
			t.Fatalf("trial %d: estimate %v, want %v", trial, res.SpreadEstimate, ref.SpreadEstimate)
		}
	}
}

// TestGreedyTieBreakIsNodeOrder pins the tie-break direction on a
// fully symmetric instance: disjoint certain edges give every source
// the same exact gain, so selection must proceed in ascending node ID.
func TestGreedyTieBreakIsNodeOrder(t *testing.T) {
	g := graph.New(8)
	for v := 0; v < 8; v += 2 {
		g.MustAddEdge(graph.NodeID(v), graph.NodeID(v+1))
	}
	p := []float64{1, 1, 1, 1}
	m := core.MustNewICM(g, p)
	res, err := Greedy(m, 3, Options{Samples: 20}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.NodeID{0, 2, 4}
	for i, v := range want {
		if res.Seeds[i] != v {
			t.Fatalf("seeds = %v, want %v (ties must break on node ID)", res.Seeds, want)
		}
	}
}

// TestGreedySpreadEstimateReproducible pins the estimator contract: the
// same entry RNG state must yield the same SpreadEstimate even when the
// candidate restriction changes how many evaluations CELF performs, as
// long as the selected set comes out the same. The old code drew the
// estimate from wherever the shared stream happened to be.
func TestGreedySpreadEstimateReproducible(t *testing.T) {
	r := rng.New(63)
	g := graph.PreferentialAttachment(r, 40, 2, 0.3)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 0.25
	}
	m := core.MustNewICM(g, p)
	full, err := Greedy(m, 2, Options{Samples: 80}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// Restrict candidates to exactly the selected seeds plus a few
	// losers: far fewer evaluations, same winners.
	cands := append([]graph.NodeID{}, full.Seeds...)
	for v := 0; len(cands) < 6; v++ {
		cands = append(cands, graph.NodeID(v))
	}
	restricted, err := Greedy(m, 2, Options{Samples: 80, Candidates: cands}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if restricted.Seeds[0] != full.Seeds[0] || restricted.Seeds[1] != full.Seeds[1] {
		t.Skipf("restricted selection diverged (%v vs %v); contract untestable on this fixture",
			restricted.Seeds, full.Seeds)
	}
	if restricted.Evaluations == full.Evaluations {
		t.Fatalf("fixture too weak: both runs evaluated %d times", full.Evaluations)
	}
	if restricted.SpreadEstimate != full.SpreadEstimate {
		t.Fatalf("SpreadEstimate %v != %v despite identical seed set and entry RNG state",
			restricted.SpreadEstimate, full.SpreadEstimate)
	}
}

// TestSelectorReevaluationAllocs is the allocs/op gate for the CELF
// bookkeeping: with a warm selector and preallocated Result backing, a
// full selection — initial pass, stale-gain re-evaluations, heap churn
// — must allocate nothing. The spread function injected here is
// deliberately cheap and deterministic; the Monte-Carlo backend layers
// its own estimator cost on top of this loop.
func TestSelectorReevaluationAllocs(t *testing.T) {
	const n, k = 200, 8
	candidates := make([]graph.NodeID, n)
	for v := range candidates {
		candidates[v] = graph.NodeID(v)
	}
	// Submodular-ish synthetic gains with plenty of stale pops: value
	// of a set decays with its size, shifted per node.
	spreadOf := func(with []graph.NodeID, node graph.NodeID, round int) float64 {
		total := 0.0
		for _, v := range with {
			total += float64((int(v)*7919)%101) / float64(1+round)
		}
		return total
	}
	sel := &selector{}
	res := &Result{Seeds: make([]graph.NodeID, 0, k), MarginalGains: make([]float64, 0, k)}
	run := func() {
		res.Seeds = res.Seeds[:0]
		res.MarginalGains = res.MarginalGains[:0]
		res.Evaluations = 0
		sel.run(candidates, k, res, spreadOf)
	}
	run() // warm the heap and the seed buffer
	if res.Evaluations <= n {
		t.Fatalf("fixture exercises no stale re-evaluations (%d evals for %d candidates)", res.Evaluations, n)
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("warm CELF selection allocates %v per run, want 0 (stale path must reuse the seed buffer)", allocs)
	}
}
