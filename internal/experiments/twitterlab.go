package experiments

import (
	"fmt"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
	"infoflow/internal/twitter"
	"infoflow/internal/unattrib"
)

// TwitterLab bundles the shared setup of the Twitter experiments
// (§IV and §V-D): one generated corpus, a train/test split of the
// retweet cascades, and a betaICM trained on the attributed evidence
// recovered from the train tweets.
type TwitterLab struct {
	Dataset *twitter.Dataset
	// RealFlow is the flow graph restricted to real users (node IDs
	// unchanged); attributed retweet experiments never involve the
	// omnipotent node.
	RealFlow *graph.DiGraph
	// Trained is the betaICM over RealFlow trained on recovered
	// attributed evidence from the train split.
	Trained *core.BetaICM
	// Extraction reports the preprocessing bookkeeping.
	Extraction *twitter.AttributedResult
	// TrainCut is the index into Dataset.Retweets separating train
	// (before) from test (after) cascades.
	TrainCut int
	// TrainTweets and TestTweets are the corpus split.
	TrainTweets, TestTweets []twitter.Tweet
}

// NewTwitterLab generates a corpus and trains the attributed model.
func NewTwitterLab(cfg twitter.Config, trainFrac float64, r *rng.RNG) (*TwitterLab, error) {
	d, err := twitter.Generate(cfg, r)
	if err != nil {
		return nil, err
	}
	lab := &TwitterLab{Dataset: d}
	lab.TrainTweets, lab.TestTweets = d.SplitTweets(trainFrac)
	lab.TrainCut = int(float64(len(d.Retweets)) * trainFrac)
	// Chain-recovered evidence attributes each retweet to one parent, so
	// the other incident edges of an already-active child are censored,
	// not failed: the censored training rule avoids deflating them.
	if lab.Trained, lab.Extraction, err = d.TrainAttributed(lab.TrainTweets, true); err != nil {
		return nil, fmt.Errorf("twitterlab: training: %w", err)
	}
	lab.RealFlow = lab.Trained.G
	return lab, nil
}

// TestCascades returns the held-out retweet objects.
func (l *TwitterLab) TestCascades() []twitter.ObjectTruth {
	return l.Dataset.Retweets[l.TrainCut:]
}

// TestCascadesFrom returns held-out cascades originating at the given
// focus user.
func (l *TwitterLab) TestCascadesFrom(focus twitter.UserID) []twitter.ObjectTruth {
	var out []twitter.ObjectTruth
	for _, obj := range l.TestCascades() {
		if obj.Seeds[0] == focus {
			out = append(out, obj)
		}
	}
	return out
}

// remapTrace translates a trace's node IDs through toNew, dropping nodes
// outside the subgraph.
func remapTrace(tr unattrib.Trace, toNew []graph.NodeID) unattrib.Trace {
	out := unattrib.Trace{}
	for u, t := range tr {
		if int(u) < len(toNew) && toNew[u] >= 0 {
			out[toNew[u]] = t
		}
	}
	return out
}
