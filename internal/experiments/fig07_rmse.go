package experiments

import (
	"fmt"
	"strings"

	"infoflow/internal/bucket"
	"infoflow/internal/dist"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
	"infoflow/internal/unattrib"
)

// Fig7Truths are the four ground-truth edge-probability sets of
// Figure 7's panels: (a) and (c) without skew, (b) and (d) with one
// skewed (small) probability.
var Fig7Truths = [][]float64{
	{0.68, 0.73, 0.85},
	{0.15, 0.68, 0.83},
	{0.82, 0.83, 0.92, 0.92},
	{0.06, 0.69, 0.74, 0.76},
}

// Fig7Config parameterises the RMSE-versus-evidence comparison of the
// four unattributed estimators (§V-C, Fig. 7).
type Fig7Config struct {
	Seed uint64
	// ObjectCounts is the evidence-size sweep (the x axis, log scale in
	// the paper: 1 .. 10^4).
	ObjectCounts []int
	// Repeats averages the RMSE over independently generated evidence.
	Repeats int
	// ParentActiveProb is the probability each incident parent is active
	// for an object when generating evidence.
	ParentActiveProb float64
	Bayes            unattrib.BayesOptions
	Saito            unattrib.SaitoOptions
}

// Fig7Paper returns the paper-scale configuration.
func Fig7Paper() Fig7Config {
	return Fig7Config{
		Seed:             7,
		ObjectCounts:     []int{1, 3, 10, 30, 100, 300, 1000, 3000, 10000},
		Repeats:          10,
		ParentActiveProb: 0.6,
		Bayes:            unattrib.DefaultBayesOptions(),
		Saito:            unattrib.DefaultSaitoOptions(),
	}
}

// Fig7Small returns a fast configuration for tests.
func Fig7Small() Fig7Config {
	c := Fig7Paper()
	c.ObjectCounts = []int{10, 100, 1000}
	c.Repeats = 3
	c.Bayes.Samples = 600
	c.Bayes.BurnIn = 200
	return c
}

// Fig7Point is the measured RMSE of each method at one evidence size,
// with the joint-Bayes posterior credible band (the paper's dashed 95%
// lines).
type Fig7Point struct {
	Objects  int
	Ours     float64
	Goyal    float64
	Filtered float64
	Saito    float64
	// OursCILo/Hi is the RMSE recomputed at the pointwise 2.5% and 97.5%
	// posterior quantiles, averaged over repeats.
	OursCILo, OursCIHi float64
}

// Fig7Panel is one truth set's curve.
type Fig7Panel struct {
	Truth  []float64
	Points []Fig7Point
}

// Fig7Result collects all panels.
type Fig7Result struct {
	Panels []Fig7Panel
}

// String renders the per-panel RMSE tables.
func (r *Fig7Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 7: RMSE of trained graph fragments versus ground truth\n")
	for _, panel := range r.Panels {
		fmt.Fprintf(&b, "truth %v\n", panel.Truth)
		fmt.Fprintf(&b, "%8s %9s %9s %9s %9s %19s\n", "objects", "ours", "goyal", "filtered", "saito", "ours 95% band")
		for _, p := range panel.Points {
			fmt.Fprintf(&b, "%8d %9.4f %9.4f %9.4f %9.4f [%8.4f,%8.4f]\n",
				p.Objects, p.Ours, p.Goyal, p.Filtered, p.Saito, p.OursCILo, p.OursCIHi)
		}
	}
	return b.String()
}

// fig7Evidence synthesises one summary: each object activates each
// parent independently with activeProb (re-drawn until non-empty), and
// the sink leaks with the ICM joint probability of the active set.
func fig7Evidence(r *rng.RNG, truth []float64, objects int, activeProb float64) *unattrib.Summary {
	parents := make([]graph.NodeID, len(truth))
	for j := range parents {
		parents[j] = graph.NodeID(j)
	}
	s, err := unattrib.NewSummary(graph.NodeID(len(truth)), parents)
	if err != nil {
		//flowlint:invariant unreachable: the synthetic parent set is built within MaxParents
		panic(err)
	}
	for o := 0; o < objects; o++ {
		var set unattrib.CharBits
		for set == 0 {
			for j := range truth {
				if r.Bernoulli(activeProb) {
					set = set.With(j)
				}
			}
		}
		surv := 1.0
		for j := range truth {
			if set.Has(j) {
				surv *= 1 - truth[j]
			}
		}
		s.Observe(set, r.Bernoulli(1-surv))
	}
	return s
}

// Fig7 runs the sweep for every truth panel.
func Fig7(cfg Fig7Config) (*Fig7Result, error) {
	res := &Fig7Result{}
	r := rng.New(cfg.Seed)
	for _, truth := range Fig7Truths {
		panel := Fig7Panel{Truth: truth}
		for _, objects := range cfg.ObjectCounts {
			var pt Fig7Point
			pt.Objects = objects
			for rep := 0; rep < cfg.Repeats; rep++ {
				s := fig7Evidence(r, truth, objects, cfg.ParentActiveProb)
				post, err := unattrib.JointBayes(s, cfg.Bayes, r)
				if err != nil {
					return nil, fmt.Errorf("fig7 truth %v objects %d: %w", truth, objects, err)
				}
				add := func(dst *float64, est []float64) error {
					v, err := bucket.RMSE(est, truth)
					if err != nil {
						return err
					}
					*dst += v / float64(cfg.Repeats)
					return nil
				}
				if err := add(&pt.Ours, post.Mean); err != nil {
					return nil, err
				}
				if err := add(&pt.Goyal, unattrib.Goyal(s)); err != nil {
					return nil, err
				}
				if err := add(&pt.Filtered, unattrib.FilteredMeans(s)); err != nil {
					return nil, err
				}
				init := make([]float64, len(truth))
				for j := range init {
					init[j] = 0.5
				}
				saito, _, err := unattrib.SaitoRelaxed(s, init, cfg.Saito)
				if err != nil {
					return nil, err
				}
				if err := add(&pt.Saito, saito); err != nil {
					return nil, err
				}
				lo, hi := posteriorBandRMSE(post, truth)
				pt.OursCILo += lo / float64(cfg.Repeats)
				pt.OursCIHi += hi / float64(cfg.Repeats)
			}
			panel.Points = append(panel.Points, pt)
		}
		res.Panels = append(res.Panels, panel)
	}
	return res, nil
}

// posteriorBandRMSE computes the RMSE at the pointwise 2.5% and 97.5%
// posterior quantiles of each edge, mirroring the dashed uncertainty
// band of Figure 7.
func posteriorBandRMSE(post *unattrib.Posterior, truth []float64) (lo, hi float64) {
	nP := len(truth)
	qLo := make([]float64, nP)
	qHi := make([]float64, nP)
	col := make([]float64, len(post.Samples))
	for j := 0; j < nP; j++ {
		for i, row := range post.Samples {
			col[i] = row[j]
		}
		qLo[j] = dist.Quantile(col, 0.025)
		qHi[j] = dist.Quantile(col, 0.975)
	}
	l, err := bucket.RMSE(qLo, truth)
	if err != nil {
		return 0, 0
	}
	h, err := bucket.RMSE(qHi, truth)
	if err != nil {
		return 0, 0
	}
	if l > h {
		l, h = h, l
	}
	return l, h
}
