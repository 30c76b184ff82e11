package infoflow_test

import (
	"math"
	"testing"

	"infoflow"
)

func TestDelayFacade(t *testing.T) {
	r := infoflow.NewRNG(10)
	g := infoflow.NewGraph(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	m := infoflow.MustNewICM(g, []float64{1, 1})
	dm, err := infoflow.NewDelayICM(m, []infoflow.DelayDist{
		infoflow.ConstantDelay(2), infoflow.ExponentialDelay{MeanDelay: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := infoflow.ArrivalStatsOf(dm.ArrivalSamples(r, 0, 2, 20000))
	if st.FlowProb != 1 {
		t.Fatalf("flow prob = %v", st.FlowProb)
	}
	if math.Abs(st.MeanGivenArrival-5) > 0.1 {
		t.Fatalf("mean arrival = %v want 5", st.MeanGivenArrival)
	}
	if c := infoflow.WithConstantDelay(m, 1); c == nil {
		t.Fatal("constant wrapper nil")
	}
}

func TestDiagnosticsFacade(t *testing.T) {
	r := infoflow.NewRNG(11)
	g := infoflow.NewGraph(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	m := infoflow.MustNewICM(g, []float64{0.5, 0.5})
	diag, err := infoflow.DiagnoseFlowProb(m, 0, 2, nil,
		infoflow.MHOptions{BurnIn: 500, Thin: 10, Samples: 5000}, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(diag.Estimate()-0.25) > 0.03 {
		t.Fatalf("estimate = %v", diag.Estimate())
	}
	if diag.RHat > 1.1 {
		t.Fatalf("rhat = %v", diag.RHat)
	}
	if ess := infoflow.EffectiveSampleSize([]float64{1, 2, 3, 4, 5, 6, 7, 8}); ess <= 0 {
		t.Fatalf("ess = %v", ess)
	}
	if _, err := infoflow.GelmanRubin([][]float64{{1, 2, 3}, {1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
}

func TestMarginalConditionalFacade(t *testing.T) {
	r := infoflow.NewRNG(12)
	g := infoflow.NewGraph(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	m := infoflow.MustNewICM(g, []float64{0.5, 0.5})
	p, satisfied, err := infoflow.MarginalConditionalFlowProb(m, 0, 2,
		[]infoflow.FlowCondition{{Source: 0, Sink: 1, Require: true}},
		infoflow.MHOptions{BurnIn: 500, Thin: 5, Samples: 40000}, r)
	if err != nil {
		t.Fatal(err)
	}
	if satisfied < 5000 {
		t.Fatalf("satisfied = %d", satisfied)
	}
	if math.Abs(p-0.5) > 0.03 {
		t.Fatalf("marginal conditional = %v", p)
	}
}

func TestInfluenceFacade(t *testing.T) {
	r := infoflow.NewRNG(13)
	g := infoflow.NewGraph(5)
	for v := 1; v < 5; v++ {
		g.MustAddEdge(0, infoflow.NodeID(v))
	}
	m := infoflow.MustNewICM(g, []float64{0.9, 0.9, 0.9, 0.9})
	res, err := infoflow.GreedySeeds(m, 1, infoflow.DefaultInfluenceOptions(), r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds[0] != 0 {
		t.Fatalf("seed = %v", res.Seeds)
	}
	if s := infoflow.ExpectedSpread(m, res.Seeds, 2000, r); math.Abs(s-4.6) > 0.2 {
		t.Fatalf("spread = %v want ~4.6", s)
	}
}

func TestParallelFacade(t *testing.T) {
	r := infoflow.NewRNG(14)
	g := infoflow.RandomGraph(r, 10, 30)
	p := make([]float64, 30)
	for i := range p {
		p[i] = 0.3
	}
	m := infoflow.MustNewICM(g, p)
	queries := []infoflow.FlowPair{{Source: 0, Sink: 1}, {Source: 0, Sink: 2}}
	got, err := infoflow.ParallelFlowProbs(m, queries, nil,
		infoflow.MHOptions{BurnIn: 100, Thin: 5, Samples: 500}, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("results = %v", got)
	}
	comm, err := infoflow.ParallelCommunityFlows(m, []infoflow.NodeID{0, 1},
		infoflow.MHOptions{BurnIn: 100, Thin: 5, Samples: 500}, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(comm) != 2 || len(comm[0]) != 10 {
		t.Fatal("community shape wrong")
	}
}

func TestBatchFacade(t *testing.T) {
	r := infoflow.NewRNG(15)
	g := infoflow.RandomGraph(r, 10, 30)
	p := make([]float64, 30)
	for i := range p {
		p[i] = 0.3
	}
	m := infoflow.MustNewICM(g, p)
	opts := infoflow.MHOptions{BurnIn: 100, Thin: 5, Samples: 400}
	// A single-pair batch is bit-identical to FlowProb on the same seed.
	pairs := []infoflow.FlowPair{{Source: 0, Sink: 1}}
	batch, err := infoflow.FlowProbBatch(m, pairs, nil, opts, infoflow.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	single, err := infoflow.FlowProb(m, 0, 1, nil, opts, infoflow.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	if batch[0] != single {
		t.Fatalf("single-pair batch %v != FlowProb %v", batch[0], single)
	}
	comm, err := infoflow.CommunityFlowProbsBatch(m, []infoflow.NodeID{0, 1}, nil, opts, infoflow.NewRNG(22))
	if err != nil {
		t.Fatal(err)
	}
	if len(comm) != 2 || len(comm[0]) != 10 {
		t.Fatal("batched community shape wrong")
	}
	if comm[0][0] != 1 || comm[1][1] != 1 {
		t.Fatalf("sources must trivially reach themselves: %v / %v", comm[0][0], comm[1][1])
	}
}

func TestScratchAndChainsFacade(t *testing.T) {
	r := infoflow.NewRNG(16)
	g := infoflow.RandomGraph(r, 12, 40)
	p := make([]float64, 40)
	for i := range p {
		p[i] = 0.4
	}
	m := infoflow.MustNewICM(g, p)

	// Allocation-free traversal engine through the facade.
	sc := infoflow.NewScratch(m.NumNodes())
	x := m.SamplePseudoState(r)
	active := m.ActiveNodesInto([]infoflow.NodeID{0}, x, sc, nil)
	want := m.ActiveNodes([]infoflow.NodeID{0}, x)
	for v := range want {
		if active.Test(v) != want[v] {
			t.Fatalf("node %d: ActiveNodesInto %v vs ActiveNodes %v", v, active.Test(v), want[v])
		}
	}
	if m.HasFlowScratch(0, 11, x, sc) != want[11] {
		t.Fatal("HasFlowScratch disagrees with ActiveNodes")
	}

	// Multi-chain estimator: deterministic and in agreement with the
	// single-chain estimator at matched sample budgets.
	opts := infoflow.MHOptions{BurnIn: 200, Thin: 10, Samples: 2000}
	a, err := infoflow.FlowProbChains(m, 0, 11, nil, opts, 4, 33)
	if err != nil {
		t.Fatal(err)
	}
	b, err := infoflow.FlowProbChains(m, 0, 11, nil, opts, 4, 33)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("FlowProbChains not deterministic: %v vs %v", a, b)
	}
	single, err := infoflow.FlowProb(m, 0, 11, nil, opts, infoflow.NewRNG(34))
	if err != nil {
		t.Fatal(err)
	}
	if diff := a - single; diff > 0.05 || diff < -0.05 {
		t.Errorf("multi-chain %v vs single-chain %v estimates diverge", a, single)
	}

	// The sampler exposes its owned scratch for custom estimators.
	s, err := infoflow.NewSampler(m, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if s.Scratch() == nil {
		t.Fatal("Sampler.Scratch returned nil")
	}
}

func TestMetricsAndInferenceFacade(t *testing.T) {
	r := infoflow.NewRNG(15)
	var e infoflow.CalibrationExperiment
	for i := 0; i < 5000; i++ {
		p := r.Float64()
		e.MustAdd(p, r.Bernoulli(p))
	}
	ece, err := infoflow.ECE(&e, 10)
	if err != nil || ece > 0.05 {
		t.Fatalf("ece = %v, %v", ece, err)
	}
	xs := []float64{1, 2, 3}
	ks, err := infoflow.KSStatistic(xs, xs)
	if err != nil || ks != 0 {
		t.Fatalf("ks = %v, %v", ks, err)
	}
	// Topology inference through the facade.
	cfg := infoflow.DefaultTwitterConfig()
	cfg.NumUsers = 100
	cfg.NumTweets = 200
	cfg.NumHashtags = 0
	cfg.NumURLs = 0
	d, err := infoflow.GenerateTwitter(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	g, obs, err2 := func() (*infoflow.Graph, []int, error) {
		g, obs := infoflow.InferTopology(d.Tweets, cfg.NumUsers)
		return g, obs, nil
	}()
	if err2 != nil {
		t.Fatal(err2)
	}
	if g.NumEdges() == 0 || len(obs) != g.NumEdges() {
		t.Fatalf("inferred %d edges, %d observations", g.NumEdges(), len(obs))
	}
	for _, e := range g.Edges() {
		if !d.Flow.HasEdge(e.From, e.To) {
			t.Fatalf("phantom inferred edge %v", e)
		}
	}
}

func TestSaitoOriginalFacade(t *testing.T) {
	g := infoflow.NewGraph(2)
	g.MustAddEdge(0, 1)
	traces := []infoflow.Trace{{0: 0, 1: 1}, {0: 0}}
	k, _, err := infoflow.SaitoOriginal(g, 1, []infoflow.NodeID{0}, traces,
		[]float64{0.5}, infoflow.SaitoOptions{MaxIter: 100, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k[0]-0.5) > 1e-9 {
		t.Fatalf("k = %v", k)
	}
}

func TestTrainAttributedFacadeSwitch(t *testing.T) {
	r := infoflow.NewRNG(16)
	g := infoflow.NewGraph(3)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 2)
	truth := infoflow.MustNewICM(g, []float64{0.9, 0.9})
	ev := &infoflow.AttributedEvidence{}
	// Both sources active, only one edge attributed.
	c := truth.SampleCascade(r, []infoflow.NodeID{0, 1})
	obj := infoflow.FromCascade(c)
	if len(obj.ActiveEdges) > 1 {
		obj.ActiveEdges = obj.ActiveEdges[:1]
	}
	ev.Add(obj)
	plain := infoflow.NewBetaICM(g)
	if err := infoflow.TrainAttributed(plain, ev, false); err != nil {
		t.Fatal(err)
	}
	censored := infoflow.NewBetaICM(g)
	if err := infoflow.TrainAttributed(censored, ev, true); err != nil {
		t.Fatal(err)
	}
	// With censoring the unattributed edge must not gain a failure count.
	totalPlain := plain.B[0].Beta + plain.B[1].Beta
	totalCens := censored.B[0].Beta + censored.B[1].Beta
	if totalCens > totalPlain {
		t.Fatalf("censored beta %v > plain %v", totalCens, totalPlain)
	}
}
