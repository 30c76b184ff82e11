package mh

import (
	"math"
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/dist"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

func TestCommunityFlowMatchesPerSink(t *testing.T) {
	r := rng.New(70)
	m := randomICM(r, 6, 14)
	src := graph.NodeID(0)
	opts := Options{BurnIn: 1000, Thin: 20, Samples: 10000}
	comm, err := CommunityFlowProbs(m, src, nil, opts, r)
	if err != nil {
		t.Fatal(err)
	}
	if comm[src] != 1 {
		t.Errorf("source self-flow = %v", comm[src])
	}
	for v := 0; v < m.NumNodes(); v++ {
		exact := m.EnumFlowProb([]graph.NodeID{src}, graph.NodeID(v))
		if math.Abs(comm[v]-exact) > 0.03 {
			t.Errorf("node %d: community %v vs exact %v", v, comm[v], exact)
		}
	}
}

func TestJointFlowProb(t *testing.T) {
	r := rng.New(71)
	// 0->1, 0->2 independent edges: joint flow prob = p1*p2.
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	m := core.MustNewICM(g, []float64{0.6, 0.3})
	opts := Options{BurnIn: 500, Thin: 8, Samples: 30000}
	got, err := JointFlowProb(m, []FlowPair{{0, 1}, {0, 2}}, nil, opts, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.18) > 0.01 {
		t.Errorf("joint = %v want 0.18", got)
	}
	// Degenerate input.
	if _, err := JointFlowProb(m, nil, nil, opts, r); err == nil {
		t.Error("empty flow list accepted")
	}
}

func TestJointVsMarginalCorrelation(t *testing.T) {
	// On a path 0->1->2, the flows 0~>1 and 0~>2 are positively
	// correlated: joint > product of marginals.
	r := rng.New(72)
	m := core.MustNewICM(graph.Path(3), []float64{0.5, 0.5})
	opts := Options{BurnIn: 500, Thin: 8, Samples: 40000}
	joint, err := JointFlowProb(m, []FlowPair{{0, 1}, {0, 2}}, nil, opts, r)
	if err != nil {
		t.Fatal(err)
	}
	// Exact: joint = Pr[0~>2] = 0.25; product = 0.5*0.25 = 0.125.
	if math.Abs(joint-0.25) > 0.01 {
		t.Errorf("joint = %v want 0.25", joint)
	}
}

func TestImpactDistribution(t *testing.T) {
	r := rng.New(73)
	// Star: 0 -> 1..4, each p=0.5. Impact ~ Binomial(4, 0.5).
	g := graph.New(5)
	for v := 1; v < 5; v++ {
		g.MustAddEdge(0, graph.NodeID(v))
	}
	m := core.MustNewICM(g, []float64{0.5, 0.5, 0.5, 0.5})
	opts := Options{BurnIn: 500, Thin: 10, Samples: 30000}
	impacts, err := ImpactDistribution(m, []graph.NodeID{0}, nil, opts, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(impacts) != opts.Samples {
		t.Fatalf("samples = %d", len(impacts))
	}
	sum := 0
	for _, k := range impacts {
		if k < 0 || k > 4 {
			t.Fatalf("impact %d out of range", k)
		}
		sum += k
	}
	if mean := float64(sum) / float64(len(impacts)); math.Abs(mean-2) > 0.05 {
		t.Errorf("mean impact = %v want 2", mean)
	}
}

func TestImpactDuplicateSources(t *testing.T) {
	r := rng.New(74)
	m := core.MustNewICM(graph.Path(2), []float64{1})
	opts := Options{BurnIn: 10, Thin: 1, Samples: 100}
	impacts, err := ImpactDistribution(m, []graph.NodeID{0, 0}, nil, opts, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range impacts {
		if k != 1 {
			t.Fatalf("impact = %d want 1", k)
		}
	}
}

func TestDirectFlowProbAgainstEnum(t *testing.T) {
	r := rng.New(75)
	m := randomICM(r, 6, 12)
	u := graph.NodeID(0)
	v := graph.NodeID(m.NumNodes() - 1)
	exact := m.EnumFlowProb([]graph.NodeID{u}, v)
	got, err := DirectFlowProb(m, u, v, 100000, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-exact) > 0.01 {
		t.Errorf("direct %v vs exact %v", got, exact)
	}
}

// TestDirectEstimatorsKeepTheirDraws pins a valid call of each direct
// estimator: the estimate, and the RNG draw after the call, are the ones
// the estimators gave before they checked their arguments, so the checks
// draw nothing. A non-positive sample or attempt count is an error.
func TestDirectEstimatorsKeepTheirDraws(t *testing.T) {
	m := batchTestModel(31, 12, 30)
	r := rng.New(9)
	p, err := DirectFlowProb(m, 0, 8, 500, r)
	if next := r.Uint64(); err != nil || p != 0.288 || next != 17782140677650955751 {
		t.Errorf("DirectFlowProb = %v, %v; next draw %d", p, err, next)
	}
	r = rng.New(9)
	p, accepted, err := DirectConditionalFlowProb(m, 0, 8, []core.FlowCondition{{Source: 0, Sink: 11}}, 500, r)
	if next := r.Uint64(); err != nil || p != 0.22566371681415928 || accepted != 226 || next != 5396663099700630486 {
		t.Errorf("DirectConditionalFlowProb = %v, %d, %v; next draw %d", p, accepted, err, next)
	}
	if _, err := DirectFlowProb(m, 0, 8, 0, rng.New(1)); err == nil {
		t.Error("DirectFlowProb accepted 0 samples")
	}
	if _, _, err := DirectConditionalFlowProb(m, 0, 8, nil, -1, rng.New(1)); err == nil {
		t.Error("DirectConditionalFlowProb accepted -1 attempts")
	}
}

// TestExpectedFlowProb estimates a flow on a betaICM's expected ICM
// (§II-A): on a 3-path the expected flow is the product of the means.
func TestExpectedFlowProb(t *testing.T) {
	r := rng.New(76)
	g := graph.Path(3)
	bm := core.NewBetaICM(g)
	bm.B[0] = dist.NewBeta(9, 1) // mean 0.9
	bm.B[1] = dist.NewBeta(1, 9) // mean 0.1
	opts := Options{BurnIn: 500, Thin: 8, Samples: 30000}
	got, err := FlowProb(bm.ExpectedICM(), 0, 2, nil, opts, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.09) > 0.01 {
		t.Errorf("expected flow = %v want 0.09", got)
	}
}

func TestNestedFlowProbSpread(t *testing.T) {
	r := rng.New(77)
	g := graph.Path(2)
	// Wide uncertainty: Beta(2,2); nested estimates should spread.
	bmWide := core.NewBetaICM(g)
	bmWide.B[0] = dist.NewBeta(2, 2)
	// Tight: Beta(200,200) at the same mean.
	bmTight := core.NewBetaICM(g)
	bmTight.B[0] = dist.NewBeta(200, 200)
	opts := Options{BurnIn: 200, Thin: 4, Samples: 4000}
	wide, err := NestedFlowProb(bmWide, 0, 1, nil, 60, opts, r)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := NestedFlowProb(bmTight, 0, 1, nil, 60, opts, r)
	if err != nil {
		t.Fatal(err)
	}
	sw, st := dist.Summarize(wide), dist.Summarize(tight)
	if math.Abs(sw.Mean-0.5) > 0.08 || math.Abs(st.Mean-0.5) > 0.08 {
		t.Errorf("nested means: wide %v tight %v", sw.Mean, st.Mean)
	}
	if sw.StdDev() < 3*st.StdDev() {
		t.Errorf("uncertainty not reflected: wide sd %v vs tight sd %v", sw.StdDev(), st.StdDev())
	}
}

func TestNestedImpact(t *testing.T) {
	r := rng.New(78)
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	bm := core.NewBetaICM(g)
	bm.B[0] = dist.NewBeta(5, 5)
	bm.B[1] = dist.NewBeta(5, 5)
	opts := Options{BurnIn: 100, Thin: 4, Samples: 500}
	impacts, err := NestedImpact(bm, []graph.NodeID{0}, 20, opts, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(impacts) != 20*500 {
		t.Fatalf("pooled samples = %d", len(impacts))
	}
	sum := 0
	for _, k := range impacts {
		sum += k
	}
	if mean := float64(sum) / float64(len(impacts)); math.Abs(mean-1) > 0.1 {
		t.Errorf("mean nested impact = %v want ~1", mean)
	}
}

// BenchmarkChainUpdate measures one Markov-chain update on the paper's
// reference scale: ~6K nodes, 14K edges (§IV-C reports .13 ms per update
// in their implementation).
func BenchmarkChainUpdate(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkOutputSample measures a full thinned output sample (thin
// chain updates plus one flow test), the quantity the paper reports as
// 27 ms per output sample on the 6K/14K graph.
func BenchmarkOutputSample(b *testing.B) {
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
	thin := 200 // the paper's ratio: 27 ms/sample over .13 ms/update ~ 200
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		for k := 0; k < thin; k++ {
			s.Step()
		}
		if m.HasFlow(0, 5999, s.State()) {
			hits++
		}
	}
	_ = hits
}

// TestImpactDistributionMatchesEnum validates the MH impact sampler
// against the exact enumerated impact distribution.
func TestImpactDistributionMatchesEnum(t *testing.T) {
	r := rng.New(79)
	g := graph.Random(r, 6, 14)
	p := make([]float64, 14)
	for i := range p {
		p[i] = r.Float64()
	}
	m := core.MustNewICM(g, p)
	exact, err := m.EnumImpactDistribution([]graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{BurnIn: 1000, Thin: 30, Samples: 40000}
	impacts, err := ImpactDistribution(m, []graph.NodeID{0}, nil, opts, r)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(exact))
	for _, k := range impacts {
		counts[k]++
	}
	for k := range exact {
		got := float64(counts[k]) / float64(len(impacts))
		if math.Abs(got-exact[k]) > 0.02 {
			t.Errorf("P[impact=%d]: MH %v vs exact %v", k, got, exact[k])
		}
	}
}
