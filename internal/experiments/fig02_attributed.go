package experiments

import (
	"fmt"
	"strings"

	"infoflow/internal/bucket"
	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
	"infoflow/internal/twitter"
)

// Fig2Config parameterises the Twitter attributed-evidence bucket
// experiments (§IV-C, Fig. 2): calibration of flow predictions from a
// betaICM trained on recovered retweet chains, on radius-1 and radius-2
// sub-graphs around focus users, with and without known-flow conditions.
type Fig2Config struct {
	Seed uint64
	// Twitter is the corpus configuration.
	Twitter twitter.Config
	// TrainFrac splits cascades into train/test.
	TrainFrac float64
	// FocusUsers is the number of "interesting" users (paper: 50).
	FocusUsers int
	// TweetsPerUser caps held-out cascades per focus (paper: 100).
	TweetsPerUser int
	// Radii are the sub-graph radii to run (paper: 1 and 2).
	Radii []int
	// KnownFlows are the condition counts to run (paper: 0 and 5).
	KnownFlows []int
	Bins       int
	MH         mh.Options
}

// Fig2Paper returns the paper-scale configuration.
func Fig2Paper() Fig2Config {
	return Fig2Config{
		Seed:          2,
		Twitter:       twitter.DefaultConfig(),
		TrainFrac:     0.7,
		FocusUsers:    50,
		TweetsPerUser: 100,
		Radii:         []int{1, 2},
		KnownFlows:    []int{0, 5},
		Bins:          30,
		MH:            mh.Options{BurnIn: 1000, Thin: 60, Samples: 400},
	}
}

// Fig2Small returns a fast configuration for tests.
func Fig2Small() Fig2Config {
	c := Fig2Paper()
	tw := twitter.DefaultConfig()
	tw.NumUsers = 250
	tw.NumTweets = 600
	tw.NumHashtags = 0
	tw.NumURLs = 0
	c.Twitter = tw
	c.FocusUsers = 8
	c.TweetsPerUser = 25
	c.Bins = 10
	c.MH = mh.Options{BurnIn: 300, Thin: 30, Samples: 200}
	return c
}

// Fig2Cell is one panel of Figure 2 (a radius x condition-count cell).
type Fig2Cell struct {
	Radius     int
	KnownFlows int
	Analysis   *bucket.Result
	All        bucket.Metrics
	Middle     bucket.Metrics
	Pairs      int
}

// Fig2Result collects all panels plus corpus bookkeeping.
type Fig2Result struct {
	Cells []Fig2Cell
	Stats twitter.Stats
	// RecoveredOriginals is the preprocessing recovery count (the paper's
	// 10M -> 10.8M growth in miniature).
	RecoveredOriginals int
}

// String renders each panel's calibration table.
func (r *Fig2Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 2: bucket experiments on attributed Twitter evidence\n")
	b.WriteString(r.Stats.String())
	fmt.Fprintf(&b, "recovered originals during preprocessing: %d\n", r.RecoveredOriginals)
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "\n(radius %d, %d known flows, %d pairs)\n", c.Radius, c.KnownFlows, c.Pairs)
		b.WriteString(c.Analysis.String())
		fmt.Fprintf(&b, "normalised likelihood: %.6f (middle %.6f), Brier: %.6f (middle %.6f)\n",
			c.All.NormalisedLikelihood, c.Middle.NormalisedLikelihood, c.All.Brier, c.Middle.Brier)
	}
	return b.String()
}

// Fig2 runs the experiment.
func Fig2(cfg Fig2Config) (*Fig2Result, error) {
	r := rng.New(cfg.Seed)
	lab, err := NewTwitterLab(cfg.Twitter, cfg.TrainFrac, r)
	if err != nil {
		return nil, err
	}
	res := &Fig2Result{
		Stats:              lab.Dataset.Stats(),
		RecoveredOriginals: lab.Extraction.RecoveredOriginals,
	}
	focuses := lab.Dataset.InterestingUsers(cfg.FocusUsers)
	for _, radius := range cfg.Radii {
		for _, known := range cfg.KnownFlows {
			exp, pairs, err := fig2Cell(cfg, lab, focuses, radius, known, r)
			if err != nil {
				return nil, err
			}
			if pairs == 0 {
				continue
			}
			analysis, err := exp.Analyze(cfg.Bins)
			if err != nil {
				return nil, err
			}
			all, err := exp.Compute()
			if err != nil {
				return nil, err
			}
			middle, err := exp.ComputeMiddle()
			if err != nil {
				middle = bucket.Metrics{}
			}
			res.Cells = append(res.Cells, Fig2Cell{
				Radius: radius, KnownFlows: known,
				Analysis: analysis, All: all, Middle: middle, Pairs: pairs,
			})
		}
	}
	return res, nil
}

// fig2Cell gathers (estimate, outcome) pairs for one panel: for each
// focus user's held-out cascades, a random sink in the radius sub-graph
// is tested for actually having retweeted (outcome), against the MH flow
// estimate from the trained sub-model (optionally conditioned on other
// observed flows of the same cascade).
func fig2Cell(cfg Fig2Config, lab *TwitterLab, focuses []twitter.UserID, radius, known int, r *rng.RNG) (*bucket.Experiment, int, error) {
	exp := &bucket.Experiment{}
	pairs := 0
	for _, focus := range focuses {
		nodes := lab.RealFlow.NodesWithinUndirected(focus, radius)
		if len(nodes) < 2 {
			continue
		}
		sub, _, toNew := lab.Trained.Subgraph(nodes)
		subICM := sub.ExpectedICM()
		focusSub := toNew[focus]
		cascades := lab.TestCascadesFrom(focus)
		if len(cascades) > cfg.TweetsPerUser {
			cascades = cascades[:cfg.TweetsPerUser]
		}
		if known == 0 && len(cascades) > 0 {
			// Unconditioned cells query one shared sub-model for every
			// cascade of the focus, so a single batched chain answers them
			// all — one chain for every cascade instead of one per tweet.
			// Conditioned cells stay on the scalar path: each cascade's
			// observed flows constrain a different posterior, which cannot
			// share a chain (see DESIGN.md §9).
			batch := make([]mh.FlowPair, len(cascades))
			outcomes := make([]bool, len(cascades))
			for i, obj := range cascades {
				sinkIdx := r.Intn(len(nodes)-1) + 1
				sink := nodes[sinkIdx]
				_, outcomes[i] = obj.ActiveTime[sink]
				batch[i] = mh.FlowPair{Source: focusSub, Sink: toNew[sink]}
			}
			ps, err := mh.FlowProbBatch(subICM, batch, nil, cfg.MH, r)
			if err != nil {
				return nil, 0, err
			}
			for i, p := range ps {
				exp.MustAdd(p, outcomes[i])
				pairs++
			}
			continue
		}
		for _, obj := range cascades {
			// Random sink within the sub-graph, distinct from focus.
			sinkIdx := r.Intn(len(nodes)-1) + 1 // nodes[0] is the focus (BFS order)
			sink := nodes[sinkIdx]
			_, sinkActive := obj.ActiveTime[sink]
			conds := fig2Conditions(lab, obj, nodes, toNew, focus, sink, known, r)
			p, err := mh.FlowProb(subICM, focusSub, toNew[sink], conds, cfg.MH, r)
			if err != nil {
				// Conditions can be unsatisfiable under the trained
				// sub-model (e.g. an observed flow along an edge the
				// training set never saw); the paper's noisy setting
				// simply yields no estimate for that tweet.
				continue
			}
			exp.MustAdd(p, sinkActive)
			pairs++
		}
	}
	return exp, pairs, nil
}

// fig2Conditions picks up to `known` random sub-graph users (excluding
// focus and sink) and conditions on their observed activity for this
// cascade — flows known to have happened or not.
func fig2Conditions(lab *TwitterLab, obj twitter.ObjectTruth, nodes []graph.NodeID, toNew []graph.NodeID, focus, sink twitter.UserID, known int, r *rng.RNG) []core.FlowCondition {
	if known == 0 {
		return nil
	}
	var conds []core.FlowCondition
	perm := r.Perm(len(nodes))
	for _, idx := range perm {
		if len(conds) == known {
			break
		}
		w := nodes[idx]
		if w == focus || w == sink {
			continue
		}
		_, active := obj.ActiveTime[w]
		conds = append(conds, core.FlowCondition{
			Source:  toNew[focus],
			Sink:    toNew[w],
			Require: active,
		})
	}
	return conds
}
