package mh

import (
	"fmt"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// MarginalConditionalFlowProb estimates Pr[source ~> sink | conds] from
// an UNCONSTRAINED chain using the Bayesian-ratio identity
//
//	Pr[flow | C] = Pr[flow AND C] / Pr[C]
//
// — the alternative the paper's footnote 2 describes: "Using bayesian
// analysis for conditional probability over unconstrained pseudo-states,
// we trade off the number of samples with time per sample". Each sample
// is cheaper (no per-step condition test gates acceptance), but samples
// violating C contribute nothing, so low-probability conditions need
// many more of them than the constrained sampler does.
//
// It returns the estimate along with the number of samples satisfying C;
// when that count is zero the estimate is unusable and an error is
// returned.
func MarginalConditionalFlowProb(m *core.ICM, source, sink graph.NodeID, conds []core.FlowCondition, opts Options, r *rng.RNG) (p float64, satisfied int, err error) {
	if err := checkFlow(m, source, sink); err != nil {
		return 0, 0, err
	}
	if err := checkConds(m, conds); err != nil {
		return 0, 0, err
	}
	s, err := NewSampler(m, nil, r)
	if err != nil {
		return 0, 0, err
	}
	flowAndCond := 0
	err = s.Run(opts, func(x core.PseudoState) {
		if !m.SatisfiesScratch(x, conds, s.scratch) {
			return
		}
		satisfied++
		if m.HasFlowScratch(source, sink, x, s.scratch) {
			flowAndCond++
		}
	})
	if err != nil {
		return 0, 0, err
	}
	if satisfied == 0 {
		return 0, 0, fmt.Errorf("mh: no samples satisfied the conditions (Pr[C] too small for marginal estimation; use the constrained sampler)")
	}
	return float64(flowAndCond) / float64(satisfied), satisfied, nil
}
