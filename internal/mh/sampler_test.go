package mh

import (
	"math"
	"testing"
	"testing/quick"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// randomICM builds a random small ICM for property tests.
func randomICM(r *rng.RNG, maxNodes, maxEdges int) *core.ICM {
	n := r.Intn(maxNodes-1) + 2
	m := r.Intn(min(n*(n-1), maxEdges) + 1)
	g := graph.Random(r, n, m)
	p := make([]float64, m)
	for i := range p {
		p[i] = r.Float64()
	}
	return core.MustNewICM(g, p)
}

// maximalState returns the pseudo-state with every positive-probability
// edge active: it carries every flow the model can carry at all.
func maximalState(m *core.ICM) core.PseudoState {
	x := core.NewPseudoState(m.NumEdges())
	for i, p := range m.P {
		if p > 0 {
			x.Set(i)
		}
	}
	return x
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestStepPreservesStateValidity(t *testing.T) {
	r := rng.New(1)
	m := randomICM(r, 10, 40)
	s, err := NewSampler(m, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		s.Step()
		x := s.State()
		for e, p := range m.P {
			active := x.Test(e)
			if active && p == 0 {
				t.Fatal("impossible edge became active")
			}
			if !active && p == 1 {
				t.Fatal("certain edge became inactive")
			}
		}
	}
	if s.Steps() != 5000 {
		t.Fatalf("steps = %d", s.Steps())
	}
	if rate := s.AcceptanceRate(); rate <= 0 || rate > 1 {
		t.Fatalf("acceptance rate = %v", rate)
	}
}

// TestMarginalEdgeFrequencies: after burn-in, each edge should be active
// in the chain with its activation probability (the stationary marginal
// of Equation (3)).
func TestMarginalEdgeFrequencies(t *testing.T) {
	r := rng.New(2)
	g := graph.Random(r, 8, 20)
	p := make([]float64, 20)
	for i := range p {
		p[i] = r.Float64()
	}
	m := core.MustNewICM(g, p)
	s, err := NewSampler(m, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 20)
	opts := Options{BurnIn: 2000, Thin: 20, Samples: 20000}
	err = s.Run(opts, func(x core.PseudoState) {
		for e := range counts {
			if x.Test(e) {
				counts[e]++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := range p {
		got := float64(counts[e]) / float64(opts.Samples)
		if math.Abs(got-p[e]) > 0.02 {
			t.Errorf("edge %d frequency %v want %v", e, got, p[e])
		}
	}
}

// TestFlowProbMatchesEnum is the headline validation (the paper's Fig. 1
// in miniature): MH flow estimates agree with exhaustive enumeration.
func TestFlowProbMatchesEnum(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		r := rng.New(seed + 100)
		m := randomICM(r, 6, 14)
		u := graph.NodeID(r.Intn(m.NumNodes()))
		v := graph.NodeID(r.Intn(m.NumNodes()))
		exact := m.EnumFlowProb([]graph.NodeID{u}, v)
		opts := Options{BurnIn: 1000, Thin: 2 * m.NumEdges(), Samples: 8000}
		if opts.Thin == 0 {
			opts.Thin = 1
		}
		got, err := FlowProb(m, u, v, nil, opts, r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-exact) > 0.03 {
			t.Errorf("seed %d: MH %v vs exact %v (u=%d v=%d, %v)", seed, got, exact, u, v, m)
		}
	}
}

// TestConditionalFlowMatchesEnum validates the condition-gated acceptance
// of §III-D against exact conditional enumeration.
func TestConditionalFlowMatchesEnum(t *testing.T) {
	r := rng.New(55)
	// Path with a shortcut: 0->1->2->3 plus 0->2, 1->3.
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 3)
	m := core.MustNewICM(g, []float64{0.3, 0.4, 0.5, 0.2, 0.25})
	cases := [][]core.FlowCondition{
		{{Source: 0, Sink: 1, Require: true}},
		{{Source: 0, Sink: 3, Require: false}},
		{{Source: 0, Sink: 1, Require: true}, {Source: 1, Sink: 3, Require: false}},
		{{Source: 0, Sink: 2, Require: true}, {Source: 0, Sink: 1, Require: false}},
	}
	for ci, conds := range cases {
		exact, err := m.EnumConditionalFlowProb([]graph.NodeID{0}, 2, conds)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{BurnIn: 2000, Thin: 10, Samples: 30000}
		got, err := FlowProb(m, 0, 2, conds, opts, r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-exact) > 0.02 {
			t.Errorf("case %d: MH conditional %v vs exact %v", ci, got, exact)
		}
	}
}

// TestConditionalMatchesRejectionSampling cross-checks the two
// conditional samplers against each other on random models.
func TestConditionalMatchesRejectionSampling(t *testing.T) {
	r := rng.New(56)
	for trial := 0; trial < 5; trial++ {
		m := randomICM(r, 6, 12)
		n := m.NumNodes()
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n))
		w := graph.NodeID(r.Intn(n))
		conds := []core.FlowCondition{{Source: u, Sink: w, Require: r.Bernoulli(0.5)}}
		direct, accepted := DirectConditionalFlowProb(m, u, v, conds, 200000, r)
		if accepted < 20000 {
			continue // condition too rare for a tight reference
		}
		opts := Options{BurnIn: 2000, Thin: 10, Samples: 20000}
		got, err := FlowProb(m, u, v, conds, opts, r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-direct) > 0.03 {
			t.Errorf("trial %d: MH %v vs rejection %v", trial, got, direct)
		}
	}
}

func TestUnsatisfiableConditions(t *testing.T) {
	r := rng.New(57)
	// 0->1 with p=0: flow 0~>1 is impossible.
	g := graph.Path(2)
	m := core.MustNewICM(g, []float64{0})
	_, err := NewSampler(m, []core.FlowCondition{{Source: 0, Sink: 1, Require: true}}, r)
	if err == nil {
		t.Fatal("impossible positive condition accepted")
	}
	// p=1: absence of flow impossible.
	m2 := core.MustNewICM(graph.Path(2), []float64{1})
	_, err = NewSampler(m2, []core.FlowCondition{{Source: 0, Sink: 1, Require: false}}, r)
	if err == nil {
		t.Fatal("impossible negative condition accepted")
	}
}

func TestConstructInitialStateRareConditions(t *testing.T) {
	// Force the constructive path: a long chain of low-probability edges
	// with a required end-to-end flow (rejection will essentially never
	// find it).
	r := rng.New(58)
	n := 12
	g := graph.Path(n)
	p := make([]float64, n-1)
	for i := range p {
		p[i] = 0.05
	}
	m := core.MustNewICM(g, p)
	conds := []core.FlowCondition{{Source: 0, Sink: graph.NodeID(n - 1), Require: true}}
	s, err := NewSampler(m, conds, r)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Satisfies(s.State(), conds) {
		t.Fatal("initial state violates conditions")
	}
	// And mixed positive + negative conditions.
	g2 := graph.New(4)
	g2.MustAddEdge(0, 1)
	g2.MustAddEdge(1, 2)
	g2.MustAddEdge(1, 3)
	m2 := core.MustNewICM(g2, []float64{0.02, 0.02, 0.02})
	conds2 := []core.FlowCondition{
		{Source: 0, Sink: 2, Require: true},
		{Source: 0, Sink: 3, Require: false},
	}
	s2, err := NewSampler(m2, conds2, r)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Satisfies(s2.State(), conds2) {
		t.Fatal("initial state violates mixed conditions")
	}
}

func TestPinnedChainNoOp(t *testing.T) {
	// All edges certain: chain must hold the unique state.
	r := rng.New(59)
	g := graph.Path(3)
	m := core.MustNewICM(g, []float64{1, 0})
	s, err := NewSampler(m, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if s.Step() {
			t.Fatal("pinned chain accepted a move")
		}
	}
	if !s.State().Test(0) || s.State().Test(1) {
		t.Fatalf("pinned state = %v", s.State())
	}
}

func TestOptionsValidation(t *testing.T) {
	r := rng.New(60)
	m := core.MustNewICM(graph.Path(2), []float64{0.5})
	s, _ := NewSampler(m, nil, r)
	for _, o := range []Options{
		{BurnIn: -1, Thin: 1, Samples: 1},
		{BurnIn: 0, Thin: 0, Samples: 1},
		{BurnIn: 0, Thin: 1, Samples: 0},
	} {
		if err := s.Run(o, func(core.PseudoState) {}); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
	if o := DefaultOptions(100); o.validate() != nil {
		t.Error("default options invalid")
	}
}

// TestChainErgodicProperty: from two different initial seeds the chain
// converges to the same flow estimate.
func TestChainErgodicProperty(t *testing.T) {
	err := quick.Check(func(seed uint16) bool {
		r1 := rng.New(uint64(seed)*2 + 1)
		r2 := rng.New(uint64(seed)*7 + 13)
		seedM := rng.New(uint64(seed) + 999)
		m := randomICM(seedM, 5, 10)
		u := graph.NodeID(seedM.Intn(m.NumNodes()))
		v := graph.NodeID(seedM.Intn(m.NumNodes()))
		opts := Options{BurnIn: 500, Thin: 8, Samples: 4000}
		p1, err := FlowProb(m, u, v, nil, opts, r1)
		if err != nil {
			return false
		}
		p2, err := FlowProb(m, u, v, nil, opts, r2)
		if err != nil {
			return false
		}
		return math.Abs(p1-p2) < 0.06
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}
