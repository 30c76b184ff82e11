package mh

import (
	"fmt"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// FlowProb estimates Pr[source ~> sink | conds] for a point-probability
// ICM by Metropolis-Hastings sampling (Equation (5), with conditions via
// Equations (6)-(8)). Pass nil conds for the unconditional probability.
// It is the one-pair FlowProbBatch: each thinned sample runs one
// bidirectional early-exit search.
func FlowProb(m *core.ICM, source, sink graph.NodeID, conds []core.FlowCondition, opts Options, r *rng.RNG) (float64, error) {
	probs, err := FlowProbBatch(m, []FlowPair{{Source: source, Sink: sink}}, conds, opts, r)
	if err != nil {
		return 0, err
	}
	return probs[0], nil
}

// CommunityFlowProbs estimates the source-to-community flow
// probabilities Pr[source ~> v | conds] for every node v in a single
// chain: each thinned sample contributes one reachability sweep, so the
// per-sample cost is O(n+m) regardless of how many sinks are queried.
// The result is indexed by NodeID; sources trivially report 1. It is
// the one-source CommunityFlowProbsBatch.
func CommunityFlowProbs(m *core.ICM, source graph.NodeID, conds []core.FlowCondition, opts Options, r *rng.RNG) ([]float64, error) {
	probs, err := CommunityFlowProbsBatch(m, []graph.NodeID{source}, conds, opts, r)
	if err != nil {
		return nil, err
	}
	return probs[0], nil
}

// FlowPair names one end-to-end flow for joint queries.
type FlowPair struct {
	Source, Sink graph.NodeID
}

// checkNodes returns an error for the first of vs that is not a node of
// m; what names the argument vs came from. The estimators call it once,
// at entry, so a bad id is reported instead of panicking mid-chain (or
// on a worker goroutine, where no caller could recover it).
func checkNodes(m *core.ICM, what string, vs ...graph.NodeID) error {
	for _, v := range vs {
		if int(v) < 0 || int(v) >= m.NumNodes() {
			return fmt.Errorf("mh: %s %d out of range [0, %d)", what, v, m.NumNodes())
		}
	}
	return nil
}

// checkFlow is checkNodes over one flow's source and sink.
func checkFlow(m *core.ICM, source, sink graph.NodeID) error {
	if err := checkNodes(m, "source", source); err != nil {
		return err
	}
	return checkNodes(m, "sink", sink)
}

// checkPairs is checkFlow over every pair, in order.
func checkPairs(m *core.ICM, pairs []FlowPair) error {
	for _, p := range pairs {
		if err := checkFlow(m, p.Source, p.Sink); err != nil {
			return err
		}
	}
	return nil
}

// JointFlowProb estimates Pr[all flows present | conds]: the fraction of
// sampled pseudo-states carrying every listed flow simultaneously. This
// is the joint-flow query that graph-walking similarity methods (such as
// RWR) cannot answer (§IV-E).
func JointFlowProb(m *core.ICM, flows []FlowPair, conds []core.FlowCondition, opts Options, r *rng.RNG) (float64, error) {
	if len(flows) == 0 {
		return 0, fmt.Errorf("mh: JointFlowProb with no flows")
	}
	if err := checkPairs(m, flows); err != nil {
		return 0, err
	}
	s, err := NewSampler(m, conds, r)
	if err != nil {
		return 0, err
	}
	hits := 0
	err = s.Run(opts, func(x core.PseudoState) {
		for _, f := range flows {
			if !m.HasFlowScratch(f.Source, f.Sink, x, s.scratch) {
				return
			}
		}
		hits++
	})
	if err != nil {
		return 0, err
	}
	return float64(hits) / float64(opts.Samples), nil
}

// ImpactDistribution estimates the dispersion of §IV-D: for each thinned
// sample it records how many non-source nodes the sources reach — the
// number of users who would retweet. The returned slice has one count
// per sample. It runs ImpactDistributionBatch's tally for one set, but
// accepts an empty source list (every impact is then 0).
func ImpactDistribution(m *core.ICM, sources []graph.NodeID, conds []core.FlowCondition, opts Options, r *rng.RNG) ([]int, error) {
	if err := checkNodes(m, "source", sources...); err != nil {
		return nil, err
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	s, err := NewSampler(m, conds, r)
	if err != nil {
		return nil, err
	}
	distinct, _ := core.DedupSources(m.NumNodes(), sources)
	impacts, err := impactsOn(s, [][]graph.NodeID{distinct}, opts)
	if err != nil {
		return nil, err
	}
	return impacts[0], nil
}

// DirectFlowProb estimates Pr[source ~> sink] by naive independent
// pseudo-state sampling — each sample costs O(m) draws plus an O(n+m)
// reachability test. It exists as the "conventional sampling" reference
// the paper compares Metropolis-Hastings against, and as a validation
// oracle: unconditioned MH and direct estimates must agree. An
// out-of-range node or a non-positive sample count is an error, found
// before any draw.
func DirectFlowProb(m *core.ICM, source, sink graph.NodeID, samples int, r *rng.RNG) (float64, error) {
	if err := checkFlow(m, source, sink); err != nil {
		return 0, err
	}
	if samples <= 0 {
		return 0, fmt.Errorf("mh: DirectFlowProb needs a positive sample count, got %d", samples)
	}
	hits := 0
	for i := 0; i < samples; i++ {
		if m.SampleCascade(r, []graph.NodeID{source}).ActiveNodes[sink] {
			hits++
		}
	}
	return float64(hits) / float64(samples), nil
}

// DirectConditionalFlowProb estimates Pr[source ~> sink | conds] by
// rejection sampling from the marginal: exact but potentially very
// expensive when Pr[C] is small, which is precisely why the paper uses
// Metropolis-Hastings. It returns the estimate and the number of
// accepted samples (0 if the conditions were never satisfied). An
// out-of-range node, in the flow or in a condition, or a non-positive
// attempt count is an error, found before any draw.
func DirectConditionalFlowProb(m *core.ICM, source, sink graph.NodeID, conds []core.FlowCondition, attempts int, r *rng.RNG) (p float64, accepted int, err error) {
	if err := checkFlow(m, source, sink); err != nil {
		return 0, 0, err
	}
	if err := checkConds(m, conds); err != nil {
		return 0, 0, err
	}
	if attempts <= 0 {
		return 0, 0, fmt.Errorf("mh: DirectConditionalFlowProb needs a positive attempt count, got %d", attempts)
	}
	hits := 0
	for i := 0; i < attempts; i++ {
		x := m.SamplePseudoState(r)
		if !m.Satisfies(x, conds) {
			continue
		}
		accepted++
		if m.HasFlow(source, sink, x) {
			hits++
		}
	}
	if accepted == 0 {
		return 0, 0, nil
	}
	return float64(hits) / float64(accepted), accepted, nil
}
