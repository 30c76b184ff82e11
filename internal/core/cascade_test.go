package core

import (
	"math"
	"testing"

	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

func TestCascadeDeterministicPath(t *testing.T) {
	r := rng.New(1)
	m := MustNewICM(graph.Path(4), []float64{1, 1, 1})
	c := m.SampleCascade(r, []graph.NodeID{0})
	for v := 0; v < 4; v++ {
		if !c.ActiveNodes[v] {
			t.Fatalf("node %d inactive with p=1 edges", v)
		}
		if c.Round[v] != v {
			t.Fatalf("round[%d] = %d", v, c.Round[v])
		}
	}
	if c.Parent[0] != -1 || c.Parent[1] != 0 || c.Parent[3] != 2 {
		t.Fatalf("parents = %v", c.Parent)
	}
	if c.NumActive() != 4 || c.NumNewlyActive() != 3 {
		t.Fatalf("counts: %d, %d", c.NumActive(), c.NumNewlyActive())
	}
}

func TestCascadeZeroProbability(t *testing.T) {
	r := rng.New(2)
	m := MustNewICM(graph.Path(3), []float64{0, 0})
	c := m.SampleCascade(r, []graph.NodeID{0})
	if c.NumActive() != 1 {
		t.Fatalf("active = %d", c.NumActive())
	}
	if !c.TriedEdges[0] || c.TriedEdges[1] {
		t.Fatalf("tried = %v", c.TriedEdges)
	}
	if c.ActiveEdges[0] {
		t.Fatal("p=0 edge activated")
	}
}

func TestCascadeEdgeActivationFrequency(t *testing.T) {
	// With the parent always active, an edge should activate at its
	// activation probability.
	r := rng.New(3)
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	m := MustNewICM(g, []float64{0.3})
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		c := m.SampleCascade(r, []graph.NodeID{0})
		if c.ActiveEdges[0] {
			hits++
		}
	}
	if got := float64(hits) / trials; math.Abs(got-0.3) > 0.01 {
		t.Errorf("edge activation rate = %v", got)
	}
}

func TestCascadeMatchesExactFlow(t *testing.T) {
	r := rng.New(4)
	g := graph.Random(r, 7, 16)
	p := make([]float64, 16)
	for i := range p {
		p[i] = r.Float64() * 0.8
	}
	m := MustNewICM(g, p)
	exact := m.EnumFlowProb([]graph.NodeID{0}, 6)
	const trials = 150000
	hits := 0
	for i := 0; i < trials; i++ {
		if m.SampleCascade(r, []graph.NodeID{0}).ActiveNodes[6] {
			hits++
		}
	}
	if got := float64(hits) / trials; math.Abs(got-exact) > 0.01 {
		t.Errorf("cascade flow rate %v vs exact %v", got, exact)
	}
}

func TestCascadeFromPseudoStateConsistency(t *testing.T) {
	r := rng.New(5)
	g := graph.Random(r, 10, 30)
	p := make([]float64, 30)
	for i := range p {
		p[i] = r.Float64()
	}
	m := MustNewICM(g, p)
	for trial := 0; trial < 200; trial++ {
		x := m.SamplePseudoState(r)
		src := []graph.NodeID{graph.NodeID(r.Intn(10))}
		c := m.CascadeFromPseudoState(src, x)
		want := m.ActiveNodes(src, x)
		for v := range want {
			if c.ActiveNodes[v] != want[v] {
				t.Fatalf("trial %d: cascade disagrees with reachability at node %d", trial, v)
			}
		}
		// Every active edge must be in the pseudo-state and have an
		// active parent; every tried edge must have an active parent.
		for e, a := range c.ActiveEdges {
			edge := g.Edge(graph.EdgeID(e))
			if a && (!x.Test(e) || !c.ActiveNodes[edge.From]) {
				t.Fatalf("bad active edge %d", e)
			}
			if c.TriedEdges[e] != c.ActiveNodes[edge.From] {
				t.Fatalf("tried edge %d mismatch", e)
			}
		}
	}
}

func TestCascadeMultiSourceDedup(t *testing.T) {
	r := rng.New(6)
	m := MustNewICM(graph.Path(3), []float64{1, 1})
	c := m.SampleCascade(r, []graph.NodeID{0, 0, 1})
	if c.NumActive() != 3 {
		t.Fatalf("active = %d", c.NumActive())
	}
	if c.NumNewlyActive() != 1 {
		t.Fatalf("newly active = %d (duplicate sources must count once)", c.NumNewlyActive())
	}
	if c.Round[1] != 0 {
		t.Fatalf("source round = %d", c.Round[1])
	}
}

// TestTheorem1SGTMEquivalence verifies Theorem 1: the SGTM threshold
// mechanism and the ICM cascade mechanism induce the same distribution
// over final active-node sets for the same edge weights.
func TestTheorem1SGTMEquivalence(t *testing.T) {
	r := rng.New(7)
	g := graph.Random(r, 6, 14)
	p := make([]float64, 14)
	for i := range p {
		p[i] = r.Float64()
	}
	m := MustNewICM(g, p)
	const trials = 120000
	// Compare per-node activation frequencies and the mean cascade size.
	icmCount := make([]int, 6)
	sgtmCount := make([]int, 6)
	icmSize, sgtmSize := 0, 0
	for i := 0; i < trials; i++ {
		ci := m.SampleCascade(r, []graph.NodeID{0})
		cs := m.SampleCascadeSGTM(r, []graph.NodeID{0})
		for v := 0; v < 6; v++ {
			if ci.ActiveNodes[v] {
				icmCount[v]++
			}
			if cs.ActiveNodes[v] {
				sgtmCount[v]++
			}
		}
		icmSize += ci.NumActive()
		sgtmSize += cs.NumActive()
	}
	for v := 0; v < 6; v++ {
		a := float64(icmCount[v]) / trials
		b := float64(sgtmCount[v]) / trials
		if math.Abs(a-b) > 0.01 {
			t.Errorf("node %d: ICM rate %v vs SGTM rate %v", v, a, b)
		}
	}
	if math.Abs(float64(icmSize-sgtmSize))/trials > 0.02 {
		t.Errorf("mean sizes differ: %v vs %v",
			float64(icmSize)/trials, float64(sgtmSize)/trials)
	}
}

func TestFromCascadeRoundTrip(t *testing.T) {
	r := rng.New(8)
	g := graph.Random(r, 8, 20)
	p := make([]float64, 20)
	for i := range p {
		p[i] = 0.6
	}
	m := MustNewICM(g, p)
	c := m.SampleCascade(r, []graph.NodeID{0, 3})
	o := FromCascade(c)
	if err := o.Validate(g); err != nil {
		t.Fatalf("cascade evidence invalid: %v", err)
	}
	if len(o.ActiveNodes) != c.NumActive() {
		t.Fatalf("active node count mismatch")
	}
}
