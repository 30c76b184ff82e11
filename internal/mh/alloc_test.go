package mh

import (
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// paperScaleSampler builds the §IV-C reference chain (~6K nodes, 14K
// edges) shared by the steady-state benchmarks.
func paperScaleSampler(b *testing.B) (*core.ICM, *Sampler) {
	b.Helper()
	r := rng.New(1)
	g := graph.Random(r, 6000, 14000)
	p := make([]float64, 14000)
	for i := range p {
		p[i] = r.Float64()
	}
	m := core.MustNewICM(g, p)
	s, err := NewSampler(m, nil, r)
	if err != nil {
		b.Fatal(err)
	}
	return m, s
}

// BenchmarkFlowProbSteadyState measures one steady-state FlowProb output
// sample — thin chain updates plus the flow indicator — on the scratch
// path the estimators actually run. This is the per-sample figure the
// CHANGES.md table tracks; allocs/op must read 0.
func BenchmarkFlowProbSteadyState(b *testing.B) {
	m, s := paperScaleSampler(b)
	const thin = 200 // the paper's 27 ms/sample over .13 ms/update ratio
	// Reach steady state: warm the scratch and let the chain mix.
	for k := 0; k < thin; k++ {
		s.Step()
	}
	m.HasFlowScratch(0, 5999, s.State(), s.scratch)
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		for k := 0; k < thin; k++ {
			s.Step()
		}
		if m.HasFlowScratch(0, 5999, s.State(), s.scratch) {
			hits++
		}
	}
	_ = hits
}

// TestFlowProbSteadyStateZeroAlloc asserts the zero-alloc claim the
// benchmark reports: once warm, chain updates plus flow tests allocate
// nothing, with and without flow conditions gating acceptance, including
// the certificate renewals of a required and two forbidden flows.
func TestFlowProbSteadyStateZeroAlloc(t *testing.T) {
	r := rng.New(77)
	g := graph.Random(r, 300, 900)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = r.Float64()
	}
	m := core.MustNewICM(g, p)

	check := func(name string, conds []core.FlowCondition) {
		s, err := NewSampler(m, conds, r)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 100; k++ { // warm scratch and queues
			s.Step()
		}
		m.HasFlowScratch(0, 299, s.State(), s.scratch)
		if allocs := testing.AllocsPerRun(100, func() {
			for k := 0; k < 10; k++ {
				s.Step()
			}
			m.HasFlowScratch(0, 299, s.State(), s.scratch)
		}); allocs != 0 {
			t.Errorf("%s: steady-state sampling allocates %v per run, want 0", name, allocs)
		}
	}

	check("unconditioned", nil)
	sink := graph.NodeID(1)
	x := core.NewPseudoState(m.NumEdges())
	for i := 0; i < m.NumEdges(); i++ {
		x.Set(i)
	}
	require := m.HasFlow(0, sink, x) // satisfiable iff some all-active path exists
	check("conditioned", []core.FlowCondition{{Source: 0, Sink: sink, Require: require}})
	m = servedModel()
	check("served evidence", servedEvidence(m))
}
