package mh

import (
	"math"
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

func TestParallelFlowProbsMatchesSequentialAccuracy(t *testing.T) {
	r := rng.New(400)
	m := randomICM(r, 7, 16)
	var queries []FlowPair
	for v := 1; v < m.NumNodes(); v++ {
		queries = append(queries, FlowPair{Source: 0, Sink: graph.NodeID(v)})
	}
	opts := Options{BurnIn: 800, Thin: 2 * m.NumEdges(), Samples: 5000}
	got, err := ParallelFlowProbs(m, queries, nil, opts, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		exact := m.EnumFlowProb([]graph.NodeID{q.Source}, q.Sink)
		if math.Abs(got[i]-exact) > 0.035 {
			t.Errorf("query %d: parallel %v vs exact %v", i, got[i], exact)
		}
	}
}

func TestParallelFlowProbsDeterministic(t *testing.T) {
	r := rng.New(401)
	m := randomICM(r, 8, 20)
	queries := []FlowPair{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 5}}
	opts := Options{BurnIn: 200, Thin: 10, Samples: 1000}
	a, err := ParallelFlowProbs(m, queries, nil, opts, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParallelFlowProbs(m, queries, nil, opts, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d differs across worker counts: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestParallelFlowProbsDeterministicConditioned repeats the determinism
// guard with flow conditions, exercising the per-sampler traversal
// scratch under concurrency: results must stay bit-identical for
// workers=1 vs workers=8.
func TestParallelFlowProbsDeterministicConditioned(t *testing.T) {
	r := rng.New(405)
	var m *core.ICM
	var conds []core.FlowCondition
	for {
		m = randomICM(r, 8, 20)
		x := maximalState(m)
		if m.NumNodes() >= 4 && m.HasFlow(0, 1, x) {
			conds = []core.FlowCondition{{Source: 0, Sink: 1, Require: true}}
			break
		}
	}
	queries := []FlowPair{{0, 2}, {0, 3}, {1, 2}, {2, 3}}
	opts := Options{BurnIn: 200, Thin: 10, Samples: 800}
	a, err := ParallelFlowProbs(m, queries, conds, opts, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParallelFlowProbs(m, queries, conds, opts, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("conditioned query %d differs across worker counts: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestParallelValidation(t *testing.T) {
	r := rng.New(402)
	m := randomICM(r, 4, 6)
	opts := Options{BurnIn: 10, Thin: 1, Samples: 10}
	if _, err := ParallelFlowProbs(m, []FlowPair{{0, 1}}, nil, opts, 0, 1); err == nil {
		t.Error("zero workers accepted")
	}
	bad := Options{}
	if _, err := ParallelFlowProbs(m, []FlowPair{{0, 1}}, nil, bad, 2, 1); err == nil {
		t.Error("bad options accepted")
	}
	if _, err := ParallelCommunityFlows(m, []graph.NodeID{0}, opts, 0, 1); err == nil {
		t.Error("zero workers accepted (community)")
	}
}

func TestParallelCommunityFlows(t *testing.T) {
	r := rng.New(403)
	m := randomICM(r, 6, 14)
	sources := []graph.NodeID{0, 1, 2}
	opts := Options{BurnIn: 800, Thin: 2 * m.NumEdges(), Samples: 6000}
	got, err := ParallelCommunityFlows(m, sources, opts, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("results = %d", len(got))
	}
	for si, src := range sources {
		for v := 0; v < m.NumNodes(); v++ {
			exact := m.EnumFlowProb([]graph.NodeID{src}, graph.NodeID(v))
			if math.Abs(got[si][v]-exact) > 0.035 {
				t.Errorf("source %d node %d: %v vs exact %v", src, v, got[si][v], exact)
			}
		}
	}
}

func TestParallelErrorPropagation(t *testing.T) {
	// Unsatisfiable conditions must surface as an error, not a hang.
	m := core.MustNewICM(graph.Path(2), []float64{0})
	conds := []core.FlowCondition{{Source: 0, Sink: 1, Require: true}}
	opts := Options{BurnIn: 10, Thin: 1, Samples: 10}
	if _, err := ParallelFlowProbs(m, []FlowPair{{0, 1}}, conds, opts, 2, 1); err == nil {
		t.Fatal("unsatisfiable conditions produced no error")
	}
}
