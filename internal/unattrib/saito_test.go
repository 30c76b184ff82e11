package unattrib

import (
	"math"
	"testing"

	"infoflow/internal/dist"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

func TestGoyalTableI(t *testing.T) {
	// Table I: rows {A,B}:5/1, {B,C}:50/15, {A,C}:10/2.
	// credit_A = 1/2 + 2/2 = 1.5; active_A = 15 -> p_A = 0.1
	// credit_B = 1/2 + 15/2 = 8; active_B = 55 -> p_B = 8/55
	// credit_C = 15/2 + 2/2 = 8.5; active_C = 60 -> p_C = 8.5/60
	p := Goyal(TableI())
	want := []float64{0.1, 8.0 / 55, 8.5 / 60}
	for j := range want {
		if math.Abs(p[j]-want[j]) > 1e-12 {
			t.Errorf("Goyal[%d] = %v want %v", j, p[j], want[j])
		}
	}
}

func TestGoyalUnambiguousExact(t *testing.T) {
	// Purely unambiguous evidence: Goyal reduces to the empirical rate.
	s, _ := NewSummary(9, []graph.NodeID{0})
	s.AddRow(0b1, 40, 10)
	p := Goyal(s)
	if math.Abs(p[0]-0.25) > 1e-12 {
		t.Errorf("p = %v want 0.25", p[0])
	}
}

func TestGoyalBiasTowardMean(t *testing.T) {
	// Skewed truth {0.9, 0.1} with mostly joint observations: Goyal
	// splits credit equally and pulls both edges toward the middle.
	r := rng.New(30)
	truth := []float64{0.9, 0.1}
	s, _ := NewSummary(9, []graph.NodeID{0, 1})
	for o := 0; o < 5000; o++ {
		set := CharBits(0b11)
		s.Observe(set, r.Bernoulli(jointProb(set, truth)))
	}
	p := Goyal(s)
	// Equal credit forces p[0] == p[1] here; both near (1-0.09)/2-ish.
	if math.Abs(p[0]-p[1]) > 1e-9 {
		t.Errorf("joint-only evidence should give equal credit: %v", p)
	}
	if p[0] > 0.6 {
		t.Errorf("Goyal failed to show its mean bias: %v", p)
	}
}

func TestSaitoRelaxedUnambiguousMatchesMLE(t *testing.T) {
	// With only unambiguous rows EM converges to leaks/count in one step.
	s, _ := NewSummary(9, []graph.NodeID{0, 1})
	s.AddRow(0b01, 50, 20)
	s.AddRow(0b10, 80, 60)
	k, iters, err := SaitoRelaxed(s, []float64{0.5, 0.5}, DefaultSaitoOptions())
	if err != nil {
		t.Fatal(err)
	}
	if iters > 5 {
		t.Errorf("iterations = %d", iters)
	}
	if math.Abs(k[0]-0.4) > 1e-9 || math.Abs(k[1]-0.75) > 1e-9 {
		t.Errorf("k = %v", k)
	}
}

func TestSaitoRelaxedRecoversTruth(t *testing.T) {
	r := rng.New(31)
	truth := []float64{0.7, 0.3, 0.5}
	s := synthSummary(r, truth, 8000)
	k, _, err := SaitoRelaxed(s, []float64{0.5, 0.5, 0.5}, DefaultSaitoOptions())
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range truth {
		if math.Abs(k[j]-want) > 0.08 {
			t.Errorf("edge %d: EM %v, truth %v", j, k[j], want)
		}
	}
}

func TestSaitoRelaxedIncreasesLikelihood(t *testing.T) {
	// EM's defining property: the likelihood never decreases.
	r := rng.New(32)
	truth := []float64{0.6, 0.4}
	s := synthSummary(r, truth, 500)
	k := []float64{0.3, 0.8}
	prev := LogLikelihood(s, k)
	for step := 0; step < 30; step++ {
		next, _, err := SaitoRelaxed(s, k, SaitoOptions{MaxIter: 1, Tol: 0})
		if err != nil {
			t.Fatal(err)
		}
		ll := LogLikelihood(s, next)
		if ll < prev-1e-9 {
			t.Fatalf("step %d: likelihood decreased %v -> %v", step, prev, ll)
		}
		prev = ll
		copy(k, next)
	}
}

func TestSaitoRelaxedValidation(t *testing.T) {
	s := TableI()
	if _, _, err := SaitoRelaxed(s, []float64{0.5}, DefaultSaitoOptions()); err == nil {
		t.Error("wrong init length accepted")
	}
	if _, _, err := SaitoRelaxed(s, []float64{0, 0.5, 0.5}, DefaultSaitoOptions()); err == nil {
		t.Error("boundary init accepted")
	}
	if _, _, err := SaitoRelaxed(s, []float64{0.5, 0.5, 0.5}, SaitoOptions{}); err == nil {
		t.Error("zero MaxIter accepted")
	}
}

// TestSaitoOriginalValidationMatchesRelaxed checks that both EMs refuse
// the same arguments with the same errors. An init of 0 is a fixed point
// of the update: accepted, it would pin the parent at 0 whatever the
// traces say (here 2 activations in 3 trials, an estimate of 2/3).
func TestSaitoOriginalValidationMatchesRelaxed(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	traces := []Trace{{0: 0, 1: 1}, {0: 0, 1: 1}, {0: 0}}
	s, err := NewSummary(1, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddRow(0b1, 3, 2); err != nil {
		t.Fatal(err)
	}
	opts := DefaultSaitoOptions()
	k, _, err := SaitoOriginal(1, g.Parents(1), traces, []float64{0.5}, opts)
	if err != nil || math.Abs(k[0]-2.0/3) > 1e-9 {
		t.Fatalf("SaitoOriginal from 0.5 = %v, %v; want 2/3", k, err)
	}
	for _, tc := range []struct {
		name string
		init []float64
		opts SaitoOptions
	}{
		{"init 0", []float64{0}, opts},
		{"init -0.2", []float64{-0.2}, opts},
		{"init 1.5", []float64{1.5}, opts},
		{"wrong length", []float64{0.5, 0.5}, opts},
		{"MaxIter 0", []float64{0.5}, SaitoOptions{Tol: 1e-9}},
	} {
		_, _, errRelaxed := SaitoRelaxed(s, tc.init, tc.opts)
		k, _, errOrig := SaitoOriginal(1, g.Parents(1), traces, tc.init, tc.opts)
		if errRelaxed == nil || errOrig == nil || errOrig.Error() != errRelaxed.Error() {
			t.Errorf("%s: SaitoOriginal = %v, %v; SaitoRelaxed error %v", tc.name, k, errOrig, errRelaxed)
		}
	}
}

// TestSaitoRestartsOnTableII reproduces the Figure 11 setup: EM restarts
// with the paper's fixed iteration budget scatter widely, because the
// Table II likelihood has a long ridge EM crawls along slowly.
//
// Reproduction finding: Table II as printed has a UNIQUE maximum-
// likelihood solution (A, B, C) = (0.5, 0, 0.5) — every restart reaches
// it given enough iterations — so the Figure 11(a) scatter is
// non-convergence at the fixed 200-iteration budget rather than genuinely
// distinct local maxima. The spread collapses as the budget grows, which
// this test asserts, along with convergence to the analytic solution.
func TestSaitoRestartsOnTableII(t *testing.T) {
	r := rng.New(33)
	spread := func(iters, restarts int) float64 {
		sols, err := SaitoRelaxedRestarts(TableII(), restarts,
			SaitoOptions{MaxIter: iters, Tol: 1e-12}, r)
		if err != nil {
			t.Fatal(err)
		}
		width := 0.0
		for j := 0; j < 3; j++ {
			lo, hi := 1.0, 0.0
			for _, k := range sols {
				if k[j] < lo {
					lo = k[j]
				}
				if k[j] > hi {
					hi = k[j]
				}
			}
			if hi-lo > width {
				width = hi - lo
			}
		}
		return width
	}
	atBudget := spread(50, 200) // scattered, as in Fig. 11(a)
	converged := spread(20000, 50)
	if atBudget < 0.1 {
		t.Errorf("budgeted EM spread = %v, expected wide scatter", atBudget)
	}
	if converged > 0.01 {
		t.Errorf("fully converged EM spread = %v, expected collapse", converged)
	}
	// The unique MLE.
	sols, err := SaitoRelaxedRestarts(TableII(), 1, SaitoOptions{MaxIter: 50000, Tol: 1e-13}, r)
	if err != nil {
		t.Fatal(err)
	}
	k := sols[0]
	if math.Abs(k[0]-0.5) > 0.01 || k[1] > 0.01 || math.Abs(k[2]-0.5) > 0.01 {
		t.Errorf("converged solution = %v, want (0.5, 0, 0.5)", k)
	}
}

func TestSaitoOriginalSimpleChain(t *testing.T) {
	// Graph 0->2, 1->2. Traces crafted so parent 0 is implicated twice
	// (once leaking at t+1) and parent 1 has one failed trial.
	g := graph.New(3)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 2)
	parents := g.Parents(2)
	traces := []Trace{
		{0: 0, 2: 1}, // 0 active at t=0, sink at t=1: positive, S={0}
		{0: 0},       // 0 active, sink never: failed trial for 0
		{1: 0},       // 1 active, sink never: failed trial for 1
	}
	k, _, err := SaitoOriginal(2, parents, traces, []float64{0.5, 0.5}, DefaultSaitoOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Edge 0: one success, one failure -> 0.5. Edge 1: one failure -> 0.
	if math.Abs(k[0]-0.5) > 1e-9 {
		t.Errorf("k0 = %v", k[0])
	}
	if k[1] != 0 {
		t.Errorf("k1 = %v", k[1])
	}
}

func TestSaitoOriginalIgnoresLateParents(t *testing.T) {
	// Parent active two steps before the sink: under the original
	// discrete-time assumption it is a failed trial, not a cause.
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	traces := []Trace{
		{0: 0, 1: 2}, // gap of 2: trial failed at t=1; activation unexplained
	}
	k, _, err := SaitoOriginal(1, g.Parents(1), traces, []float64{0.5}, DefaultSaitoOptions())
	if err != nil {
		t.Fatal(err)
	}
	if k[0] != 0 {
		t.Errorf("k = %v; late parent should not receive credit", k[0])
	}
}

func TestSaitoOriginalVsRelaxedOnRoundData(t *testing.T) {
	// When cascades really do propagate one round per step (as ICM
	// cascade rounds do), the two estimators see compatible evidence and
	// should land near the truth and near each other.
	r := rng.New(34)
	truth := []float64{0.6, 0.35}
	g := graph.New(3)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 2)
	var traces []Trace
	for o := 0; o < 6000; o++ {
		tr := Trace{}
		leak := false
		if r.Bernoulli(0.7) {
			tr[0] = 0
			if r.Bernoulli(truth[0]) {
				leak = true
			}
		}
		if r.Bernoulli(0.7) {
			tr[1] = 0
			if r.Bernoulli(truth[1]) {
				leak = true
			}
		}
		if leak {
			tr[2] = 1
		}
		if len(tr) > 0 {
			traces = append(traces, tr)
		}
	}
	orig, _, err := SaitoOriginal(2, g.Parents(2), traces, []float64{0.5, 0.5}, DefaultSaitoOptions())
	if err != nil {
		t.Fatal(err)
	}
	sums, err := BuildSummaries(g, traces)
	if err != nil {
		t.Fatal(err)
	}
	relaxed, _, err := SaitoRelaxed(sums[2], []float64{0.5, 0.5}, DefaultSaitoOptions())
	if err != nil {
		t.Fatal(err)
	}
	for j := range truth {
		if math.Abs(orig[j]-truth[j]) > 0.08 {
			t.Errorf("original[%d] = %v truth %v", j, orig[j], truth[j])
		}
		if math.Abs(relaxed[j]-truth[j]) > 0.08 {
			t.Errorf("relaxed[%d] = %v truth %v", j, relaxed[j], truth[j])
		}
	}
}

func TestFilteredMatchesUnambiguousCounting(t *testing.T) {
	s, _ := NewSummary(9, []graph.NodeID{0, 1})
	s.AddRow(0b01, 10, 4)
	s.AddRow(0b11, 1000, 900) // ambiguous flood: must be ignored
	betas := Filtered(s)
	if betas[0] != (dist.Beta{Alpha: 5, Beta: 7}) {
		t.Errorf("filtered[0] = %v", betas[0])
	}
	if betas[1] != dist.Uniform() {
		t.Errorf("filtered[1] = %v", betas[1])
	}
	means := FilteredMeans(s)
	if math.Abs(means[0]-5.0/12) > 1e-12 || means[1] != 0.5 {
		t.Errorf("means = %v", means)
	}
}
