package mh

import (
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// TestEstimatorsRejectOutOfRangeNodes hands every exported estimator,
// and NewSampler, a node id one past the last node and one below zero in
// each node argument it takes — a source, a sink, a set member, a
// target and a condition endpoint — and expects an error each time. The
// multi-chain estimators run their chains on worker goroutines, where a
// panic would end the process.
func TestEstimatorsRejectOutOfRangeNodes(t *testing.T) {
	m := batchTestModel(31, 12, 30)
	bm := core.NewBetaICM(m.G)
	opts := Options{BurnIn: 10, Thin: 5, Samples: 4}
	r := func() *rng.RNG { return rng.New(1) }
	sampler := func() *Sampler {
		s, err := NewSampler(m, nil, r())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, bad := range []graph.NodeID{graph.NodeID(m.NumNodes()), -1} {
		cond := []core.FlowCondition{{Source: 0, Sink: bad}}
		cases := []struct {
			name string
			run  func() error
		}{
			{"NewSampler condition", func() error { _, err := NewSampler(m, cond, r()); return err }},
			{"FlowProb source", func() error { _, err := FlowProb(m, bad, 1, nil, opts, r()); return err }},
			{"FlowProb sink", func() error { _, err := FlowProb(m, 0, bad, nil, opts, r()); return err }},
			{"FlowProb condition", func() error { _, err := FlowProb(m, 0, 1, cond, opts, r()); return err }},
			{"FlowProbBatch source", func() error {
				_, err := FlowProbBatch(m, []FlowPair{{0, 1}, {bad, 1}}, nil, opts, r())
				return err
			}},
			{"FlowProbBatch sink", func() error {
				_, err := FlowProbBatch(m, []FlowPair{{0, 1}, {0, bad}}, nil, opts, r())
				return err
			}},
			{"FlowProbBatchOn sink", func() error { _, err := FlowProbBatchOn(sampler(), []FlowPair{{0, bad}}, opts); return err }},
			{"FlowProbChains source", func() error { _, err := FlowProbChains(m, bad, 1, nil, opts, 2, 1); return err }},
			{"FlowProbChains condition", func() error { _, err := FlowProbChains(m, 0, 1, cond, opts, 2, 1); return err }},
			{"ParallelFlowProbs sink", func() error {
				_, err := ParallelFlowProbs(m, []FlowPair{{0, 1}, {0, bad}}, nil, opts, 2, 1)
				return err
			}},
			{"ParallelFlowProbs condition", func() error {
				_, err := ParallelFlowProbs(m, []FlowPair{{0, 1}}, cond, opts, 2, 1)
				return err
			}},
			{"CommunityFlowProbs source", func() error { _, err := CommunityFlowProbs(m, bad, nil, opts, r()); return err }},
			{"CommunityFlowProbsBatch source", func() error {
				_, err := CommunityFlowProbsBatch(m, []graph.NodeID{0, bad}, nil, opts, r())
				return err
			}},
			{"CommunityFlowProbsBatchOn source", func() error {
				_, err := CommunityFlowProbsBatchOn(sampler(), []graph.NodeID{bad}, opts)
				return err
			}},
			{"ParallelCommunityFlows source", func() error {
				_, err := ParallelCommunityFlows(m, []graph.NodeID{0, bad}, opts, 2, 1)
				return err
			}},
			{"ImpactDistribution member", func() error {
				_, err := ImpactDistribution(m, []graph.NodeID{0, bad}, nil, opts, r())
				return err
			}},
			{"ImpactDistributionBatch member", func() error {
				_, err := ImpactDistributionBatch(m, [][]graph.NodeID{{0}, {1, bad}}, nil, opts, r())
				return err
			}},
			{"ImpactDistributionBatchOn member", func() error {
				_, err := ImpactDistributionBatchOn(sampler(), [][]graph.NodeID{{bad}}, opts)
				return err
			}},
			{"JointFlowProb source", func() error {
				_, err := JointFlowProb(m, []FlowPair{{0, 1}, {bad, 1}}, nil, opts, r())
				return err
			}},
			{"DiagnoseFlowProb sink", func() error { _, err := DiagnoseFlowProb(m, 0, bad, nil, opts, 2, r()); return err }},
			{"MarginalConditionalFlowProb sink", func() error {
				_, _, err := MarginalConditionalFlowProb(m, 0, bad, nil, opts, r())
				return err
			}},
			{"MarginalConditionalFlowProb condition", func() error {
				_, _, err := MarginalConditionalFlowProb(m, 0, 1, cond, opts, r())
				return err
			}},
			{"BuildRRPool target", func() error {
				_, err := BuildRRPool(m, []graph.NodeID{0, bad}, nil, 64, 0, opts, r())
				return err
			}},
			{"BuildRRPool condition", func() error { _, err := BuildRRPool(m, nil, cond, 64, 0, opts, r()); return err }},
			{"NestedFlowProb condition", func() error { _, err := NestedFlowProb(bm, 0, 1, cond, 2, opts, r()); return err }},
			{"NestedImpact member", func() error { _, err := NestedImpact(bm, []graph.NodeID{bad}, 2, opts, r()); return err }},
			{"DirectFlowProb source", func() error { _, err := DirectFlowProb(m, bad, 1, 10, r()); return err }},
			{"DirectFlowProb sink", func() error { _, err := DirectFlowProb(m, 0, bad, 10, r()); return err }},
			{"DirectConditionalFlowProb source", func() error {
				_, _, err := DirectConditionalFlowProb(m, bad, 1, nil, 10, r())
				return err
			}},
			{"DirectConditionalFlowProb sink", func() error {
				_, _, err := DirectConditionalFlowProb(m, 0, bad, nil, 10, r())
				return err
			}},
			{"DirectConditionalFlowProb condition", func() error {
				_, _, err := DirectConditionalFlowProb(m, 0, 1, cond, 10, r())
				return err
			}},
		}
		for _, c := range cases {
			if err := c.run(); err == nil {
				t.Errorf("%s %d: no error", c.name, bad)
			}
		}
	}
}
