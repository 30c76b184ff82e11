package experiments

import (
	"fmt"
	"math"
	"strings"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
	"infoflow/internal/twitter"
	"infoflow/internal/unattrib"
)

// AblationConfig parameterises the design-choice ablations DESIGN.md
// calls out: the weighted flip proposal of §III-C versus a uniform
// proposal, and the omnipotent outside-world user of §V-D versus
// omitting it.
type AblationConfig struct {
	Seed uint64
	// Proposal ablation: model size and chain budget.
	Nodes, Edges int
	Budget       mh.Options
	Queries      int
	// Omnipotent ablation: corpus and learning settings.
	Twitter   twitter.Config
	TrainFrac float64
	Radius    int
	Bayes     unattrib.BayesOptions
	MH        mh.Options
}

// AblationPaper returns the full-scale configuration.
func AblationPaper() AblationConfig {
	return AblationConfig{
		Seed:  77,
		Nodes: 50, Edges: 200,
		Budget:  mh.Options{BurnIn: 1000, Thin: 50, Samples: 2000},
		Queries: 40,
		Twitter: twitter.DefaultConfig(), TrainFrac: 0.7, Radius: 4,
		Bayes: unattrib.BayesOptions{BurnIn: 200, Thin: 2, Samples: 400, Step: 0.08},
		MH:    mh.Options{BurnIn: 2000, Thin: 50, Samples: 1500},
	}
}

// AblationSmall returns a fast configuration for tests.
func AblationSmall() AblationConfig {
	c := AblationPaper()
	c.Nodes, c.Edges = 15, 50
	c.Budget = mh.Options{BurnIn: 300, Thin: 20, Samples: 800}
	c.Queries = 12
	tw := twitter.DefaultConfig()
	tw.NumUsers = 300
	tw.NumTweets = 0
	tw.NumHashtags = 0
	tw.NumURLs = 120
	c.Twitter = tw
	c.Radius = 3
	c.Bayes = unattrib.BayesOptions{BurnIn: 100, Thin: 1, Samples: 150, Step: 0.1}
	c.MH = mh.Options{BurnIn: 500, Thin: 20, Samples: 500}
	return c
}

// AblationResult reports both ablations.
type AblationResult struct {
	// Proposal ablation at a fixed chain budget.
	WeightedAcceptance, UniformAcceptance float64
	WeightedMAE, UniformMAE               float64 // vs direct-sampling reference
	// Omnipotent ablation: mean community-flow probability from the
	// source with and without the omnipotent user in the learned graph.
	MeanFlowWithOmni, MeanFlowNoOmni float64
}

// String renders both comparisons.
func (r *AblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation 1: §III-C weighted flip proposal vs uniform proposal (same budget)\n")
	fmt.Fprintf(&b, "  weighted: acceptance %.3f, MAE vs reference %.4f\n", r.WeightedAcceptance, r.WeightedMAE)
	fmt.Fprintf(&b, "  uniform:  acceptance %.3f, MAE vs reference %.4f\n", r.UniformAcceptance, r.UniformMAE)
	b.WriteString("Ablation 2: omnipotent outside-world user in unattributed learning\n")
	fmt.Fprintf(&b, "  mean source-to-community flow with omnipotent: %.4f\n", r.MeanFlowWithOmni)
	fmt.Fprintf(&b, "  mean source-to-community flow without:         %.4f\n", r.MeanFlowNoOmni)
	b.WriteString("  (the paper: omitting the omnipotent user increases flow probabilities marginally)\n")
	return b.String()
}

// Ablation runs both studies.
func Ablation(cfg AblationConfig) (*AblationResult, error) {
	res := &AblationResult{}
	if err := proposalAblation(cfg, res); err != nil {
		return nil, err
	}
	if err := omnipotentAblation(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// proposalAblation estimates the same random flow queries with both
// proposals at an identical budget and scores them against long direct
// sampling.
func proposalAblation(cfg AblationConfig, res *AblationResult) error {
	r := rng.New(cfg.Seed)
	bm := core.GenerateBetaICM(r, cfg.Nodes, cfg.Edges, 1, 20, 1, 20)
	m := bm.ExpectedICM()
	var accW, accU float64
	var maeW, maeU float64
	for q := 0; q < cfg.Queries; q++ {
		u := graph.NodeID(r.Intn(cfg.Nodes))
		v := graph.NodeID(r.Intn(cfg.Nodes))
		for v == u {
			v = graph.NodeID(r.Intn(cfg.Nodes))
		}
		ref, err := mh.DirectFlowProb(m, u, v, 40000, r)
		if err != nil {
			return err
		}
		run := func(uniform bool) (float64, float64, error) {
			s, err := mh.NewSampler(m, nil, r.Fork())
			if err != nil {
				return 0, 0, err
			}
			s.SetUniformProposal(uniform)
			hits := 0
			err = s.Run(cfg.Budget, func(x core.PseudoState) {
				if m.HasFlow(u, v, x) {
					hits++
				}
			})
			if err != nil {
				return 0, 0, err
			}
			return float64(hits) / float64(cfg.Budget.Samples), s.AcceptanceRate(), nil
		}
		est, acc, err := run(false)
		if err != nil {
			return err
		}
		accW += acc / float64(cfg.Queries)
		maeW += math.Abs(est-ref) / float64(cfg.Queries)
		est, acc, err = run(true)
		if err != nil {
			return err
		}
		accU += acc / float64(cfg.Queries)
		maeU += math.Abs(est-ref) / float64(cfg.Queries)
	}
	res.WeightedAcceptance, res.UniformAcceptance = accW, accU
	res.WeightedMAE, res.UniformMAE = maeW, maeU
	return nil
}

// omnipotentAblation learns URL edge probabilities twice — with the
// omnipotent outside-world user absorbing externally-caused activations,
// and without it (so those activations attribute to real edges) — and
// compares the source-to-community flow levels each learned model
// implies. The paper reports that omitting the omnipotent user increases
// flow probabilities marginally.
func omnipotentAblation(cfg AblationConfig, res *AblationResult) error {
	r := rng.New(cfg.Seed + 1)
	d, err := twitter.Generate(cfg.Twitter, r)
	if err != nil {
		return err
	}
	lab, err := NewTagFlowLab(d, twitter.MentionURLs, cfg.TrainFrac)
	if err != nil {
		return err
	}
	withOmni, err := lab.LearnWithOptions(cfg.Radius, cfg.Bayes, true, r)
	if err != nil {
		return err
	}
	noOmni, err := lab.LearnWithOptions(cfg.Radius, cfg.Bayes, false, r)
	if err != nil {
		return err
	}
	flowsWith, err := withOmni.CommunityFlow(withOmni.OursMean, cfg.MH, r)
	if err != nil {
		return err
	}
	flowsNo, err := noOmni.CommunityFlow(noOmni.OursMean, cfg.MH, r)
	if err != nil {
		return err
	}
	// Both models share the same sub-graph (node mappings included), so
	// per-node flows are directly comparable.
	nUsers := 0
	for i, old := range withOmni.ToOld {
		if old == d.Omnipotent || old == lab.Source {
			continue
		}
		res.MeanFlowWithOmni += flowsWith[i]
		res.MeanFlowNoOmni += flowsNo[i]
		nUsers++
	}
	if nUsers > 0 {
		res.MeanFlowWithOmni /= float64(nUsers)
		res.MeanFlowNoOmni /= float64(nUsers)
	}
	return nil
}
