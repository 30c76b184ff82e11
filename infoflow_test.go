package infoflow_test

import (
	"math"
	"testing"

	"infoflow"
)

// TestQuickstartFlow exercises the documented quick-start path.
func TestQuickstartFlow(t *testing.T) {
	r := infoflow.NewRNG(1)
	g := infoflow.NewGraph(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	m := infoflow.MustNewICM(g, []float64{0.8, 0.5})
	p, err := infoflow.FlowProb(m, 0, 2, nil, infoflow.DefaultMHOptions(m.NumEdges()), r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.4) > 0.03 {
		t.Fatalf("quickstart flow = %v, want ~0.4", p)
	}
}

// TestTrainAndQuery walks the full attributed pipeline through the
// facade: simulate, train, query point and nested estimates.
func TestTrainAndQuery(t *testing.T) {
	r := infoflow.NewRNG(2)
	g := infoflow.RandomGraph(r, 20, 60)
	p := make([]float64, 60)
	for i := range p {
		p[i] = r.Float64() * 0.5
	}
	truth := infoflow.MustNewICM(g, p)
	bm := infoflow.NewBetaICM(g)
	ev := &infoflow.AttributedEvidence{}
	for i := 0; i < 1500; i++ {
		c := truth.SampleCascade(r, []infoflow.NodeID{infoflow.NodeID(r.Intn(20))})
		ev.Add(infoflow.FromCascade(c))
	}
	if err := bm.TrainAttributed(ev); err != nil {
		t.Fatal(err)
	}
	opts := infoflow.MHOptions{BurnIn: 1000, Thin: 60, Samples: 3000}
	trained, err := infoflow.FlowProb(bm.ExpectedICM(), 0, 19, nil, opts, r)
	if err != nil {
		t.Fatal(err)
	}
	actual, err := infoflow.DirectFlowProb(truth, 0, 19, 30000, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(trained-actual) > 0.1 {
		t.Fatalf("trained flow %v vs actual %v", trained, actual)
	}
	nested, err := infoflow.NestedFlowProb(bm, 0, 19, nil, 10,
		infoflow.MHOptions{BurnIn: 300, Thin: 30, Samples: 500}, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(nested) != 10 {
		t.Fatalf("nested samples = %d", len(nested))
	}
}

// TestConditionalAndJointQueries covers the query types RWR cannot
// answer.
func TestConditionalAndJointQueries(t *testing.T) {
	r := infoflow.NewRNG(3)
	g := infoflow.NewGraph(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	m := infoflow.MustNewICM(g, []float64{0.5, 0.5})
	opts := infoflow.MHOptions{BurnIn: 500, Thin: 10, Samples: 20000}
	cond, err := infoflow.FlowProb(m, 0, 2,
		[]infoflow.FlowCondition{{Source: 0, Sink: 1, Require: true}}, opts, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cond-0.5) > 0.02 {
		t.Fatalf("conditional = %v, want 0.5", cond)
	}
	joint, err := infoflow.JointFlowProb(m,
		[]infoflow.FlowPair{{Source: 0, Sink: 1}, {Source: 0, Sink: 2}}, nil, opts, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(joint-0.25) > 0.02 {
		t.Fatalf("joint = %v, want 0.25", joint)
	}
}

// TestUnattributedFacade walks traces -> summaries -> all four learners.
func TestUnattributedFacade(t *testing.T) {
	r := infoflow.NewRNG(4)
	g := infoflow.NewGraph(3)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 2)
	truth := []float64{0.7, 0.2}
	var traces []infoflow.Trace
	for o := 0; o < 3000; o++ {
		tr := infoflow.Trace{}
		leak := false
		for j := infoflow.NodeID(0); j < 2; j++ {
			if r.Bernoulli(0.6) {
				tr[j] = 0
				if r.Bernoulli(truth[j]) {
					leak = true
				}
			}
		}
		if leak {
			tr[2] = 1
		}
		if len(tr) > 0 {
			traces = append(traces, tr)
		}
	}
	sums, err := infoflow.BuildSummaries(g, traces)
	if err != nil {
		t.Fatal(err)
	}
	s := sums[2]
	post, err := infoflow.JointBayes(s, infoflow.DefaultBayesOptions(), r)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range truth {
		if math.Abs(post.Mean[j]-want) > 0.08 {
			t.Errorf("bayes[%d] = %v want %v", j, post.Mean[j], want)
		}
	}
	goyal := infoflow.Goyal(s)
	if len(goyal) != 2 {
		t.Fatal("goyal length")
	}
	em, _, err := infoflow.SaitoRelaxed(s, []float64{0.5, 0.5}, infoflow.SaitoOptions{MaxIter: 200, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range truth {
		if math.Abs(em[j]-want) > 0.1 {
			t.Errorf("saito[%d] = %v want %v", j, em[j], want)
		}
	}
	filt := infoflow.Filtered(s)
	if len(filt) != 2 {
		t.Fatal("filtered length")
	}
}

// TestTwitterFacade generates a small corpus and round-trips the
// preprocessing through the facade.
func TestTwitterFacade(t *testing.T) {
	r := infoflow.NewRNG(5)
	cfg := infoflow.DefaultTwitterConfig()
	cfg.NumUsers = 120
	cfg.NumTweets = 150
	cfg.NumHashtags = 10
	cfg.NumURLs = 10
	d, err := infoflow.GenerateTwitter(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	res := infoflow.ExtractAttributed(d.Flow, d.Tweets)
	if res.Objects == 0 {
		t.Fatal("no objects extracted")
	}
	if got := infoflow.ExtractURLTraces(d.Tweets); len(got) != 10 {
		t.Fatalf("url traces = %d", len(got))
	}
	if got := infoflow.ExtractHashtagTraces(d.Tweets); len(got) != 10 {
		t.Fatalf("hashtag traces = %d", len(got))
	}
}

// TestRWRFacade sanity-checks the baseline hook.
func TestRWRFacade(t *testing.T) {
	g := infoflow.NewGraph(2)
	g.MustAddEdge(0, 1)
	scores, err := infoflow.RWRScores(g, []float64{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if scores[0] <= scores[1] || scores[1] <= 0 {
		t.Fatalf("scores = %v", scores)
	}
}

// TestCalibrationFacade runs a tiny calibration analysis end-to-end.
func TestCalibrationFacade(t *testing.T) {
	r := infoflow.NewRNG(6)
	var exp infoflow.CalibrationExperiment
	for i := 0; i < 5000; i++ {
		p := r.Float64()
		exp.MustAdd(p, r.Bernoulli(p))
	}
	res, err := exp.Analyze(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage < 0.7 {
		t.Fatalf("coverage = %v", res.Coverage)
	}
	m, err := exp.Compute()
	if err != nil {
		t.Fatal(err)
	}
	if m.Brier > 0.2 {
		t.Fatalf("brier = %v", m.Brier)
	}
}

// TestSizeDistributionFacade checks the analytic size law through the
// facade on a two-edge path: Pr[0 reached]=(1-p)(... ) enumerable by hand.
func TestSizeDistributionFacade(t *testing.T) {
	g := infoflow.NewGraph(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	m := infoflow.MustNewICM(g, []float64{0.5, 0.5})
	res, err := infoflow.SizeDistribution(m, []infoflow.NodeID{0}, infoflow.DefaultSizeDistOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatalf("path graph should be exact, method %s", res.Method)
	}
	want := []float64{0.5, 0.25, 0.25}
	for k, p := range res.Dist {
		if diff := p - want[k]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("Dist[%d] = %v, want %v", k, p, want[k])
		}
	}
	if mean := res.Mean(); mean < 0.74 || mean > 0.76 {
		t.Fatalf("mean = %v, want 0.75", mean)
	}
}
