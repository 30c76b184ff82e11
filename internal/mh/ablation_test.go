package mh

import (
	"math"
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// TestUniformProposalSameDistribution: the ablated uniform proposal must
// converge to the same stationary distribution.
func TestUniformProposalSameDistribution(t *testing.T) {
	r := rng.New(80)
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
	s.SetUniformProposal(true)
	counts := make([]int, 20)
	opts := Options{BurnIn: 3000, Thin: 30, Samples: 20000}
	if err := s.Run(opts, func(x core.PseudoState) {
		for e := range counts {
			if x.Test(e) {
				counts[e]++
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	for e := range p {
		got := float64(counts[e]) / float64(opts.Samples)
		if math.Abs(got-p[e]) > 0.025 {
			t.Errorf("edge %d frequency %v want %v", e, got, p[e])
		}
	}
}

// TestUniformProposalLowerAcceptance: on skewed edge probabilities the
// weighted proposal should accept clearly more often — the rationale for
// the Fenwick-tree design (§III-C).
func TestUniformProposalLowerAcceptance(t *testing.T) {
	r := rng.New(81)
	g := graph.Random(r, 10, 40)
	p := make([]float64, 40)
	for i := range p {
		// Strongly skewed: most edges nearly certain one way.
		if r.Bernoulli(0.5) {
			p[i] = 0.02
		} else {
			p[i] = 0.98
		}
	}
	m := core.MustNewICM(g, p)
	run := func(uniform bool) float64 {
		s, err := NewSampler(m, nil, rng.New(82))
		if err != nil {
			t.Fatal(err)
		}
		s.SetUniformProposal(uniform)
		for i := 0; i < 50000; i++ {
			s.Step()
		}
		return s.AcceptanceRate()
	}
	weighted := run(false)
	uniform := run(true)
	if weighted <= uniform {
		t.Errorf("weighted acceptance %v <= uniform %v on skewed model", weighted, uniform)
	}
	if weighted < 0.5 {
		t.Errorf("weighted acceptance %v unexpectedly low", weighted)
	}
}

// TestUniformProposalPinnedEdges: uniform proposals on pinned edges must
// reject rather than corrupt the state.
func TestUniformProposalPinnedEdges(t *testing.T) {
	r := rng.New(83)
	m := core.MustNewICM(graph.Path(3), []float64{1, 0})
	s, err := NewSampler(m, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	s.SetUniformProposal(true)
	for i := 0; i < 1000; i++ {
		s.Step()
	}
	if !s.State().Test(0) || s.State().Test(1) {
		t.Fatalf("pinned state corrupted: %v", s.State())
	}
}

// BenchmarkWeightedProposal and BenchmarkUniformProposal make the
// ablation measurable: steps are cheaper for uniform, but effective
// samples per step favour weighted on skewed models.
func benchProposal(b *testing.B, uniform bool) {
	r := rng.New(1)
	g := graph.Random(r, 2000, 8000)
	p := make([]float64, 8000)
	for i := range p {
		p[i] = r.Float64() * 0.3
	}
	m := core.MustNewICM(g, p)
	s, err := NewSampler(m, nil, r)
	if err != nil {
		b.Fatal(err)
	}
	s.SetUniformProposal(uniform)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkWeightedProposal(b *testing.B) { benchProposal(b, false) }
func BenchmarkUniformProposal(b *testing.B)  { benchProposal(b, true) }
