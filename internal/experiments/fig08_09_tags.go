package experiments

import (
	"fmt"
	"strings"

	"infoflow/internal/bucket"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
	"infoflow/internal/twitter"
	"infoflow/internal/unattrib"
)

// TagConfig parameterises the URL (Fig. 8) and hashtag (Fig. 9) flow
// prediction experiments of §V-D.
type TagConfig struct {
	Seed      uint64
	Twitter   twitter.Config
	Kind      twitter.MentionKind
	TrainFrac float64
	Radii     []int // paper: 4 and 5
	Bins      int
	Bayes     unattrib.BayesOptions
	MH        mh.Options
}

// Fig8Paper returns the paper-scale URL configuration.
func Fig8Paper() TagConfig {
	return TagConfig{
		Seed:      8,
		Twitter:   twitter.DefaultConfig(),
		Kind:      twitter.MentionURLs,
		TrainFrac: 0.7,
		Radii:     []int{4, 5},
		Bins:      30,
		Bayes:     unattrib.BayesOptions{BurnIn: 200, Thin: 2, Samples: 400, Step: 0.08},
		MH:        mh.Options{BurnIn: 2000, Thin: 50, Samples: 1500},
	}
}

// Fig9Paper returns the paper-scale hashtag configuration.
func Fig9Paper() TagConfig {
	c := Fig8Paper()
	c.Seed = 9
	c.Kind = twitter.MentionHashtags
	return c
}

// tagSmall shrinks a config for tests.
func tagSmall(c TagConfig) TagConfig {
	tw := twitter.DefaultConfig()
	tw.NumUsers = 300
	tw.NumTweets = 0
	tw.NumHashtags = 120
	tw.NumURLs = 120
	c.Twitter = tw
	c.Radii = []int{3}
	c.Bins = 10
	c.Bayes = unattrib.BayesOptions{BurnIn: 100, Thin: 1, Samples: 150, Step: 0.1}
	c.MH = mh.Options{BurnIn: 500, Thin: 20, Samples: 500}
	return c
}

// Fig8Small returns a fast URL configuration for tests.
func Fig8Small() TagConfig { return tagSmall(Fig8Paper()) }

// Fig9Small returns a fast hashtag configuration for tests.
func Fig9Small() TagConfig { return tagSmall(Fig9Paper()) }

// TagCell is one panel: a radius and a learning method.
type TagCell struct {
	Radius int
	Method string // "ours" or "goyal"
	bucket.Report
	Pairs   int
	Objects int
}

// TagResult collects the panels of Figure 8 or 9.
type TagResult struct {
	Kind  twitter.MentionKind
	Cells []TagCell
}

// String renders the per-panel analyses.
func (r *TagResult) String() string {
	var b strings.Builder
	name := "URLs (Figure 8)"
	if r.Kind == twitter.MentionHashtags {
		name = "hashtags (Figure 9)"
	}
	fmt.Fprintf(&b, "Measuring the flow of %s\n", name)
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "\n(radius %d, %s; %d objects, %d pairs)\n", c.Radius, c.Method, c.Objects, c.Pairs)
		b.WriteString(c.Report.String())
	}
	return b.String()
}

// RunTag executes the experiment for the configured mention kind: learn
// edge probabilities on radius sub-graphs by both methods, estimate
// source-to-community flows, and bucket them against held-out mentions.
func RunTag(cfg TagConfig) (*TagResult, error) {
	r := rng.New(cfg.Seed)
	d, err := twitter.Generate(cfg.Twitter, r)
	if err != nil {
		return nil, err
	}
	lab, err := NewTagFlowLab(d, cfg.Kind, cfg.TrainFrac)
	if err != nil {
		return nil, err
	}
	res := &TagResult{Kind: cfg.Kind}
	for _, radius := range cfg.Radii {
		model, err := lab.Learn(radius, cfg.Bayes, r)
		if err != nil {
			return nil, err
		}
		for _, method := range []string{"ours", "goyal"} {
			probs := model.OursMean
			if method == "goyal" {
				probs = model.Goyal
			}
			flows, err := model.CommunityFlow(probs, cfg.MH, r)
			if err != nil {
				return nil, err
			}
			exp := &bucket.Experiment{}
			objects := lab.TestPairsFromSource(model, func(v int32, active bool) {
				exp.MustAdd(flows[v], active)
			})
			if exp.Len() == 0 {
				continue
			}
			rep, err := exp.Report(cfg.Bins)
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, TagCell{Radius: radius, Method: method, Report: rep, Pairs: exp.Len(), Objects: objects})
		}
	}
	if len(res.Cells) == 0 {
		return nil, fmt.Errorf("tag experiment produced no pairs")
	}
	return res, nil
}
