package core

import (
	"testing"

	"infoflow/internal/bitset"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

func randomScratchICM(r *rng.RNG, n, m int) *ICM {
	if max := n * (n - 1); m > max {
		m = max
	}
	g := graph.Random(r, n, m)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = r.Float64()
	}
	return MustNewICM(g, p)
}

// TestScratchVariantsMatchClosureAPIs cross-checks ActiveNodesInto,
// HasFlowScratch and SatisfiesScratch against ActiveNodes, which runs
// the closure reference graph.Reachable, over random models and
// pseudo-states, reusing one scratch.
func TestScratchVariantsMatchClosureAPIs(t *testing.T) {
	r := rng.New(21)
	sc := graph.NewScratch(0)
	var active bitset.Set
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(12)
		m := randomScratchICM(r, n, r.Intn(3*n))
		x := m.SamplePseudoState(r)
		srcs := []graph.NodeID{graph.NodeID(r.Intn(n))}

		want := m.ActiveNodes(srcs, x)
		active = m.ActiveNodesInto(srcs, x, sc, active)
		for v := range want {
			if active.Test(v) != want[v] {
				t.Fatalf("trial %d node %d: ActiveNodesInto %v, ActiveNodes %v",
					trial, v, active.Test(v), want[v])
			}
		}

		reach := make([][]bool, n)
		for u := range reach {
			reach[u] = m.ActiveNodes([]graph.NodeID{graph.NodeID(u)}, x)
			for v := 0; v < n; v++ {
				hs := m.HasFlowScratch(graph.NodeID(u), graph.NodeID(v), x, sc)
				if hs != reach[u][v] {
					t.Fatalf("trial %d: flow %d~>%d: scratch %v, closure %v", trial, u, v, hs, reach[u][v])
				}
			}
		}

		var conds []FlowCondition
		for k := 0; k < 1+r.Intn(3); k++ {
			u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			conds = append(conds, FlowCondition{Source: u, Sink: v, Require: r.Bernoulli(0.5)})
		}
		sat := true
		for _, c := range conds {
			sat = sat && reach[c.Source][c.Sink] == c.Require
		}
		if got := m.SatisfiesScratch(x, conds, sc); got != sat {
			t.Fatalf("trial %d: SatisfiesScratch %v, closure %v (conds %+v)", trial, got, sat, conds)
		}
		if got := m.Satisfies(x, conds); got != sat {
			t.Fatalf("trial %d: Satisfies %v, closure %v (conds %+v)", trial, got, sat, conds)
		}
		if !m.SatisfiesScratch(x, nil, sc) {
			t.Fatalf("trial %d: empty condition set must be satisfied", trial)
		}
	}
}

// TestCoreScratchZeroAlloc pins the zero-allocation contract at the
// model level with warmed scratch state.
func TestCoreScratchZeroAlloc(t *testing.T) {
	r := rng.New(22)
	m := randomScratchICM(r, 100, 400)
	x := m.SamplePseudoState(r)
	sc := graph.NewScratch(m.NumNodes())
	active := bitset.New(m.NumNodes())
	srcs := []graph.NodeID{0}
	conds := []FlowCondition{{Source: 0, Sink: 50, Require: m.HasFlow(0, 50, x)}}
	m.ActiveNodesInto(srcs, x, sc, active)
	if allocs := testing.AllocsPerRun(50, func() {
		active = m.ActiveNodesInto(srcs, x, sc, active)
		m.HasFlowScratch(0, 99, x, sc)
		m.SatisfiesScratch(x, conds, sc)
	}); allocs != 0 {
		t.Errorf("scratch variants allocate %v per run, want 0", allocs)
	}
}
