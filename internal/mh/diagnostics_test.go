package mh

import (
	"math"
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

func TestAutocorrelationWhiteNoise(t *testing.T) {
	r := rng.New(300)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = r.Norm()
	}
	rho := Autocorrelation(xs, 5)
	if rho[0] != 1 {
		t.Fatalf("lag0 = %v", rho[0])
	}
	for lag := 1; lag <= 5; lag++ {
		if math.Abs(rho[lag]) > 0.05 {
			t.Errorf("white noise lag %d autocorrelation = %v", lag, rho[lag])
		}
	}
}

func TestAutocorrelationAR1(t *testing.T) {
	// x_t = 0.8 x_{t-1} + noise has lag-k autocorrelation ~ 0.8^k.
	r := rng.New(301)
	xs := make([]float64, 50000)
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.8*xs[i-1] + r.Norm()
	}
	rho := Autocorrelation(xs, 3)
	for lag := 1; lag <= 3; lag++ {
		want := math.Pow(0.8, float64(lag))
		if math.Abs(rho[lag]-want) > 0.05 {
			t.Errorf("AR(1) lag %d = %v want %v", lag, rho[lag], want)
		}
	}
}

func TestAutocorrelationEdgeCases(t *testing.T) {
	if rho := Autocorrelation(nil, 3); len(rho) != 1 || rho[0] != 0 {
		t.Errorf("empty series rho = %v", rho)
	}
	constant := []float64{2, 2, 2, 2}
	rho := Autocorrelation(constant, 2)
	if rho[0] != 1 || rho[1] != 0 {
		t.Errorf("constant series rho = %v", rho)
	}
}

func TestEffectiveSampleSize(t *testing.T) {
	r := rng.New(302)
	iid := make([]float64, 10000)
	for i := range iid {
		iid[i] = r.Norm()
	}
	if ess := EffectiveSampleSize(iid); ess < 7000 {
		t.Errorf("iid ESS = %v of %d", ess, len(iid))
	}
	// Strongly correlated series: far fewer effective samples.
	ar := make([]float64, 10000)
	for i := 1; i < len(ar); i++ {
		ar[i] = 0.95*ar[i-1] + r.Norm()
	}
	essAR := EffectiveSampleSize(ar)
	// Theoretical ESS factor for AR(1) with rho=0.95: (1-rho)/(1+rho) ~ 0.026.
	if essAR > 1000 {
		t.Errorf("AR ESS = %v, want far below n", essAR)
	}
	if essAR < 1 {
		t.Errorf("ESS = %v below 1", essAR)
	}
	if ess := EffectiveSampleSize([]float64{1, 2}); ess != 2 {
		t.Errorf("tiny series ESS = %v", ess)
	}
}

func TestGelmanRubinConvergedAndNot(t *testing.T) {
	r := rng.New(303)
	sameA := make([]float64, 5000)
	sameB := make([]float64, 5000)
	for i := range sameA {
		sameA[i] = r.Norm()
		sameB[i] = r.Norm()
	}
	rhat, err := GelmanRubin([][]float64{sameA, sameB})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rhat-1) > 0.02 {
		t.Errorf("converged R-hat = %v", rhat)
	}
	// Shifted chains: clearly diverged.
	shifted := make([]float64, 5000)
	for i := range shifted {
		shifted[i] = 5 + r.Norm()
	}
	rhat, err = GelmanRubin([][]float64{sameA, shifted})
	if err != nil {
		t.Fatal(err)
	}
	if rhat < 1.5 {
		t.Errorf("diverged R-hat = %v", rhat)
	}
}

func TestGelmanRubinErrors(t *testing.T) {
	if _, err := GelmanRubin([][]float64{{1, 2}}); err == nil {
		t.Error("single chain accepted")
	}
	if _, err := GelmanRubin([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged chains accepted")
	}
	if _, err := GelmanRubin([][]float64{{1}, {1}}); err == nil {
		t.Error("length-1 chains accepted")
	}
}

func TestGelmanRubinConstantChains(t *testing.T) {
	same, err := GelmanRubin([][]float64{{3, 3, 3}, {3, 3, 3}})
	if err != nil || same != 1 {
		t.Errorf("identical constants R-hat = %v, %v", same, err)
	}
	diff, err := GelmanRubin([][]float64{{3, 3, 3}, {4, 4, 4}})
	if err != nil || !math.IsInf(diff, 1) {
		t.Errorf("different constants R-hat = %v, %v", diff, err)
	}
}

func TestDiagnoseFlowProb(t *testing.T) {
	r := rng.New(304)
	m := randomICM(r, 7, 16)
	u := graph.NodeID(0)
	v := graph.NodeID(m.NumNodes() - 1)
	opts := Options{BurnIn: 1000, Thin: 2 * m.NumEdges(), Samples: 4000}
	diag, err := DiagnoseFlowProb(m, u, v, nil, opts, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	exact := m.EnumFlowProb([]graph.NodeID{u}, v)
	if math.Abs(diag.Estimate()-exact) > 0.04 {
		t.Errorf("pooled estimate %v vs exact %v", diag.Estimate(), exact)
	}
	if diag.RHat > 1.1 {
		t.Errorf("R-hat = %v, chains not converged", diag.RHat)
	}
	if diag.ESS < float64(opts.Samples)/4 {
		t.Errorf("ESS = %v suspiciously low for thin=%d", diag.ESS, opts.Thin)
	}
	if diag.AcceptanceRate <= 0 || diag.AcceptanceRate > 1 {
		t.Errorf("acceptance = %v", diag.AcceptanceRate)
	}
	if diag.String() == "" {
		t.Error("empty report")
	}
}

func TestDiagnoseFlowProbValidation(t *testing.T) {
	r := rng.New(305)
	m := core.MustNewICM(graph.Path(2), []float64{0.5})
	if _, err := DiagnoseFlowProb(m, 0, 1, nil, Options{BurnIn: 1, Thin: 1, Samples: 10}, 1, r); err == nil {
		t.Error("single chain accepted")
	}
	if _, err := DiagnoseFlowProb(m, 0, 1, nil, Options{Thin: 0, Samples: 10}, 2, r); err == nil {
		t.Error("bad options accepted")
	}
}

// TestThinningImprovesESS: the diagnostic should show that heavier
// thinning decorrelates the sampled series — the justification for the
// paper's delta' parameter. A single edge's activity is the most
// persistent statistic (it only changes when that edge itself flips,
// about once every m steps), so it exposes the effect sharply.
func TestThinningImprovesESS(t *testing.T) {
	r := rng.New(306)
	m := randomICM(r, 8, 24)
	_ = r
	essAt := func(thin int) float64 {
		s, err := NewSampler(m, nil, rng.New(307))
		if err != nil {
			t.Fatal(err)
		}
		series := make([]float64, 0, 4000)
		err = s.Run(Options{BurnIn: 500, Thin: thin, Samples: 4000}, func(x core.PseudoState) {
			val := 0.0
			if x.Test(0) {
				val = 1
			}
			series = append(series, val)
		})
		if err != nil {
			t.Fatal(err)
		}
		return EffectiveSampleSize(series)
	}
	thin1 := essAt(1)
	thin48 := essAt(48) // 2x edge count
	if thin48 <= 2*thin1 {
		t.Errorf("ESS did not clearly improve with thinning: %v (thin 1) vs %v (thin 48)", thin1, thin48)
	}
}
