package mh

import (
	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// NestedFlowProb implements the nested Metropolis-Hastings procedure of
// §III-E: it draws nModels point-probability ICMs from the betaICM (each
// edge probability sampled from its beta distribution) and estimates the
// flow probability on each, yielding a sample from the betaICM's
// distribution OVER flow probabilities — the uncertainty of the
// prediction, not just its expectation.
//
// Each inner estimate uses opts; the outer loop returns one flow
// probability per sampled model.
func NestedFlowProb(bm *core.BetaICM, source, sink graph.NodeID, conds []core.FlowCondition, nModels int, opts Options, r *rng.RNG) ([]float64, error) {
	probs := make([]float64, 0, nModels)
	for k := 0; k < nModels; k++ {
		m := bm.SampleICM(r)
		p, err := FlowProb(m, source, sink, conds, opts, r)
		if err != nil {
			return nil, err
		}
		probs = append(probs, p)
	}
	return probs, nil
}

// NestedImpact draws nModels ICMs from the betaICM and, for each,
// samples impact counts; the pooled counts approximate the posterior
// predictive distribution over impact used in Figure 4.
func NestedImpact(bm *core.BetaICM, sources []graph.NodeID, nModels int, opts Options, r *rng.RNG) ([]int, error) {
	var all []int
	for k := 0; k < nModels; k++ {
		m := bm.SampleICM(r)
		impacts, err := ImpactDistribution(m, sources, nil, opts, r)
		if err != nil {
			return nil, err
		}
		all = append(all, impacts...)
	}
	return all, nil
}
