package experiments

import (
	"fmt"
	"strings"

	"infoflow/internal/bucket"
	"infoflow/internal/dist"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
	"infoflow/internal/twitter"
	"infoflow/internal/unattrib"
)

// Fig10Config parameterises the edge-uncertainty repetition of the URL
// experiment (§V-D, Fig. 10): instead of point estimates, each of
// Graphs sampled models draws every edge probability from a gaussian
// approximation (mean, stddev) of its posterior, smoothing the flow
// probabilities.
type Fig10Config struct {
	Seed      uint64
	Twitter   twitter.Config
	TrainFrac float64
	Radius    int
	// Graphs is the number of independently sampled graphs (paper: 30).
	Graphs int
	Bins   int
	Bayes  unattrib.BayesOptions
	MH     mh.Options
}

// Fig10Paper returns the paper-scale configuration.
func Fig10Paper() Fig10Config {
	return Fig10Config{
		Seed:      10,
		Twitter:   twitter.DefaultConfig(),
		TrainFrac: 0.7,
		Radius:    4,
		Graphs:    30,
		Bins:      30,
		Bayes:     unattrib.BayesOptions{BurnIn: 200, Thin: 2, Samples: 400, Step: 0.08},
		MH:        mh.Options{BurnIn: 1000, Thin: 40, Samples: 600},
	}
}

// Fig10Small returns a fast configuration for tests.
func Fig10Small() Fig10Config {
	c := Fig10Paper()
	tw := twitter.DefaultConfig()
	tw.NumUsers = 300
	tw.NumTweets = 0
	tw.NumHashtags = 0
	tw.NumURLs = 120
	c.Twitter = tw
	c.Radius = 3
	c.Graphs = 8
	c.Bins = 10
	c.Bayes = unattrib.BayesOptions{BurnIn: 100, Thin: 1, Samples: 150, Step: 0.1}
	c.MH = mh.Options{BurnIn: 300, Thin: 15, Samples: 300}
	return c
}

// Fig10Result is the pooled bucket analysis across sampled graphs.
type Fig10Result struct {
	bucket.Report
	Pairs  int
	Graphs int
}

// String renders the analysis.
func (r *Fig10Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: URL bucket experiment with %d graphs sampled from the gaussian edge approximation (%d pairs)\n",
		r.Graphs, r.Pairs)
	b.WriteString(r.Report.String())
	return b.String()
}

// Fig10 runs the experiment.
func Fig10(cfg Fig10Config) (*Fig10Result, error) {
	r := rng.New(cfg.Seed)
	d, err := twitter.Generate(cfg.Twitter, r)
	if err != nil {
		return nil, err
	}
	lab, err := NewTagFlowLab(d, twitter.MentionURLs, cfg.TrainFrac)
	if err != nil {
		return nil, err
	}
	model, err := lab.Learn(cfg.Radius, cfg.Bayes, r)
	if err != nil {
		return nil, err
	}
	exp := &bucket.Experiment{}
	for g := 0; g < cfg.Graphs; g++ {
		probs := make([]float64, len(model.OursMean))
		for id := range probs {
			probs[id] = dist.NewNormal(model.OursMean[id], model.OursStd[id]).SampleUnit(r)
		}
		flows, err := model.CommunityFlow(probs, cfg.MH, r)
		if err != nil {
			return nil, err
		}
		lab.TestPairsFromSource(model, func(v int32, active bool) {
			exp.MustAdd(flows[v], active)
		})
	}
	if exp.Len() == 0 {
		return nil, fmt.Errorf("fig10: no pairs")
	}
	rep, err := exp.Report(cfg.Bins)
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Report: rep, Pairs: exp.Len(), Graphs: cfg.Graphs}, nil
}
