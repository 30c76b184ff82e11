package mh

import (
	"fmt"
	"math/bits"

	"infoflow/internal/bitset"
	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// LaneWidth is the number of RR sets one word of an RRPool's cover
// carries; a pool draws its roots per thinned sample in multiples of it.
const LaneWidth = 64

// MaxLaneWords is MaxLanes counted in LaneWidth-query words.
const MaxLaneWords = 16

// MaxLanes bounds the queries one batched estimator call is meant to
// carry; the serving layer caps its batches with it. Every query pays
// its own traversal per thinned sample, so the bound caps a batch's
// tally memory (a community query keeps a count per node), not a
// traversal's width.
const MaxLanes = LaneWidth * MaxLaneWords

// The batched estimators below share one chain between many queries:
// every query rides the chain's burn-in and thinning steps, and each
// thinned sample answers every query with the traversal its scalar
// estimator runs — the tallies countFlows, countReached and countImpacts
// serve both. The chain consumes exactly the same randomness whatever
// the queries and every traversal is exact, so a query's estimate in a
// batch is bit-identical to its scalar estimate on the same RNG.
// Estimates within a batch are correlated (they share samples), but
// each is individually the same unbiased estimator.

// FlowProbBatch estimates Pr[source_k ~> sink_k | conds] for every pair
// from ONE Metropolis-Hastings chain. For the multi-query workloads the
// paper's experiments run — hundreds of (source, sink) pairs against
// the same model — this amortises the dominant cost (chain updates)
// across the whole batch. FlowProb is the one-pair batch.
func FlowProbBatch(m *core.ICM, pairs []FlowPair, conds []core.FlowCondition, opts Options, r *rng.RNG) ([]float64, error) {
	if err := checkPairs(m, pairs); err != nil {
		return nil, err
	}
	s, err := NewSampler(m, conds, r)
	if err != nil {
		return nil, err
	}
	return FlowProbBatchOn(s, pairs, opts)
}

// FlowProbBatchOn is FlowProbBatch running on a caller-constructed
// sampler: the serving layer uses it to keep hold of the chain for
// post-run diagnostics (PostBurnInAcceptanceRate) while coalescing
// concurrent queries into one batch. The sampler must be freshly
// constructed (or at a run boundary); opts.Interrupt cancellation is
// honoured between thinned samples.
func FlowProbBatchOn(s *Sampler, pairs []FlowPair, opts Options) ([]float64, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("mh: FlowProbBatch with no pairs")
	}
	if err := checkPairs(s.m, pairs); err != nil {
		return nil, err
	}
	hits := make([]int, len(pairs))
	if err := s.Run(opts, func(x core.PseudoState) { countFlows(s.m.G, pairs, x, s.scratch, hits) }); err != nil {
		return nil, err
	}
	return fractions(hits, opts.Samples), nil
}

// countFlows counts a hit for every pair whose source reaches its sink
// across the active edges x: one bidirectional early-exit search
// (HasPathBits) per pair.
//
//flowlint:hotpath
func countFlows(g *graph.DiGraph, pairs []FlowPair, x bitset.Set, sc *graph.Scratch, hits []int) {
	for q, p := range pairs {
		if g.HasPathBits(p.Source, p.Sink, x, sc) {
			hits[q]++
		}
	}
}

// fractions divides every count by samples.
func fractions(counts []int, samples int) []float64 {
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c) / float64(samples)
	}
	return out
}

// ImpactDistributionBatch estimates the §IV-D impact distribution for
// every listed source SET from one chain: per thinned sample, each set's
// impact is the number of nodes its sources reach minus the set size.
// The result is indexed [set][sample]; ImpactDistribution runs the same
// tally for one set.
func ImpactDistributionBatch(m *core.ICM, sets [][]graph.NodeID, conds []core.FlowCondition, opts Options, r *rng.RNG) ([][]int, error) {
	s, err := NewSampler(m, conds, r)
	if err != nil {
		return nil, err
	}
	return ImpactDistributionBatchOn(s, sets, opts)
}

// ImpactDistributionBatchOn is ImpactDistributionBatch running on a
// caller-constructed sampler; see FlowProbBatchOn for why the serving
// layer wants the chain in hand.
func ImpactDistributionBatchOn(s *Sampler, sets [][]graph.NodeID, opts Options) ([][]int, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("mh: ImpactDistributionBatch with no source sets")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	distinct := make([][]graph.NodeID, len(sets))
	for i, set := range sets {
		if err := checkNodes(s.m, "source", set...); err != nil {
			return nil, fmt.Errorf("%w in set %d", err, i)
		}
		distinct[i], _ = core.DedupSources(s.m.NumNodes(), set)
		if len(distinct[i]) == 0 {
			return nil, fmt.Errorf("mh: ImpactDistributionBatch set %d is empty", i)
		}
	}
	return impactsOn(s, distinct, opts)
}

// impactsOn runs s and returns the impact series of every set, each of
// which must hold distinct, checked sources.
func impactsOn(s *Sampler, sets [][]graph.NodeID, opts Options) ([][]int, error) {
	impacts := make([][]int, len(sets))
	for i := range impacts {
		impacts[i] = make([]int, 0, opts.Samples)
	}
	reached := bitset.New(s.m.NumNodes())
	if err := s.Run(opts, func(x core.PseudoState) { countImpacts(s.m.G, sets, x, s.scratch, reached, impacts) }); err != nil {
		return nil, err
	}
	return impacts, nil
}

// countImpacts appends to impacts[i] the number of nodes the distinct
// sources sets[i] reach across the active edges x, less the set's size:
// one multi-source packed BFS into reached (which must hold NumNodes
// bits) and a popcount per set.
//
//flowlint:hotpath
func countImpacts(g *graph.DiGraph, sets [][]graph.NodeID, x bitset.Set, sc *graph.Scratch, reached bitset.Set, impacts [][]int) {
	for i, set := range sets {
		reached = g.ReachableBitsInto(set, x, sc, reached)
		impacts[i] = append(impacts[i], reached.Count()-len(set))
	}
}

// CommunityFlowProbsBatch estimates Pr[source_k ~> v | conds] for every
// listed source and every node v from one chain. The result is indexed
// [source][node]; CommunityFlowProbs is the one-source batch.
//
// This is the batched complement of ParallelCommunityFlows: that API
// buys wall-clock with one chain (and one burn-in) per source across
// goroutines, this one buys throughput by sharing a single chain's
// samples across all sources on one core.
func CommunityFlowProbsBatch(m *core.ICM, sources []graph.NodeID, conds []core.FlowCondition, opts Options, r *rng.RNG) ([][]float64, error) {
	if err := checkNodes(m, "source", sources...); err != nil {
		return nil, err
	}
	s, err := NewSampler(m, conds, r)
	if err != nil {
		return nil, err
	}
	return CommunityFlowProbsBatchOn(s, sources, opts)
}

// CommunityFlowProbsBatchOn is CommunityFlowProbsBatch running on a
// caller-constructed sampler; see FlowProbBatchOn for why the serving
// layer wants the chain in hand.
func CommunityFlowProbsBatchOn(s *Sampler, sources []graph.NodeID, opts Options) ([][]float64, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("mh: CommunityFlowProbsBatch with no sources")
	}
	if err := checkNodes(s.m, "source", sources...); err != nil {
		return nil, err
	}
	n := s.m.NumNodes()
	counts := make([][]int, len(sources))
	for k := range counts {
		counts[k] = make([]int, n)
	}
	reached := bitset.New(n)
	if err := s.Run(opts, func(x core.PseudoState) { countReached(s.m.G, sources, x, s.scratch, reached, counts) }); err != nil {
		return nil, err
	}
	probs := make([][]float64, len(sources))
	for k, cs := range counts {
		probs[k] = fractions(cs, opts.Samples)
	}
	return probs, nil
}

// countReached adds one to counts[k][v] for every node v that sources[k]
// reaches across the active edges x: one packed BFS per source into
// reached (which must hold NumNodes bits), whose words are then peeled,
// so a node costs a count update only when it is reached.
//
//flowlint:hotpath
func countReached(g *graph.DiGraph, sources []graph.NodeID, x bitset.Set, sc *graph.Scratch, reached bitset.Set, counts [][]int) {
	for k := range sources {
		reached = g.ReachableBitsInto(sources[k:k+1], x, sc, reached)
		c := counts[k]
		for wi, w := range reached {
			base := wi * 64
			for ; w != 0; w &= w - 1 {
				c[base+bits.TrailingZeros64(w)]++
			}
		}
	}
}
