package mh

import (
	"fmt"
	"math/bits"

	"infoflow/internal/bitset"
	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// FlowProbBatch estimates Pr[source_k ~> sink_k | conds] for every pair
// from ONE Metropolis-Hastings chain: all queries share the chain's
// burn-in and thinning steps, and each thinned sample is interrogated
// by one wide-lane reachability sweep per chunk of up to MaxLanes pairs
// instead of one scalar search per pair. For the multi-query workloads
// the paper's experiments run — hundreds of (source, sink) pairs
// against the same model — this amortises the dominant cost (chain
// updates) across the whole batch.
//
// The chain consumes exactly the same randomness as FlowProb regardless
// of the pair count, and the lane sweep is an exact reachability
// computation, so a single-pair batch is bit-identical to FlowProb on
// the same RNG, and every pair's estimate equals what per-pair
// evaluation of the same sample stream would produce. Estimates within
// a batch are correlated (they share samples), but each is individually
// the same unbiased estimator FlowProb computes.
func FlowProbBatch(m *core.ICM, pairs []FlowPair, conds []core.FlowCondition, opts Options, r *rng.RNG) ([]float64, error) {
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
	sources := make([]graph.NodeID, len(pairs))
	for q, p := range pairs {
		if err := checkNodes(s.m, "sink", p.Sink); err != nil {
			return nil, err
		}
		sources[q] = p.Source
	}
	var l laneLayout
	if err := l.place(s.m, sources, 0); err != nil {
		return nil, err
	}
	hits := make([]int, len(pairs))
	if err := s.Run(opts, func(x core.PseudoState) { l.countFlows(pairs, x, s.scratch, hits) }); err != nil {
		return nil, err
	}
	probs := make([]float64, len(pairs))
	for q, h := range hits {
		probs[q] = float64(h) / float64(opts.Samples)
	}
	return probs, nil
}

// countFlows sweeps every chunk of x and counts a hit for each pair
// whose source lane reached its sink.
//
//flowlint:hotpath
func (l *laneLayout) countFlows(pairs []FlowPair, x bitset.Set, sc *graph.Scratch, hits []int) {
	for c := range l.seeds {
		l.sweep(c, x, sc)
		lo, hi := l.span(c)
		for q := lo; q < hi; q++ {
			if l.reached(pairs[q].Sink, q) {
				hits[q]++
			}
		}
	}
}

// ImpactDistributionBatch estimates the §IV-D impact distribution for
// every listed source SET from one chain: per thinned sample, each set's
// impact is the popcount of the union of its sources' reachability lanes
// minus the set size, so k concurrent impact queries share one burn-in
// and one wide-lane sweep per chunk instead of k scalar reachability
// passes. Each set occupies one lane per distinct source. The result is
// indexed [set][sample]; a single-set batch is bit-identical to
// ImpactDistribution on the same RNG (the chain's randomness never
// depends on the lane set, and the lane union popcount is exactly the
// active-set popcount the scalar path computes).
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
	// Flatten every set's distinct sources onto consecutive queries; a
	// set's impact only depends on the union of its lanes, so duplicates
	// within a set would waste lanes without changing the answer.
	spans := make([]laneSpan, len(sets))
	var flat []graph.NodeID
	for i, set := range sets {
		if err := checkNodes(s.m, "source", set...); err != nil {
			return nil, fmt.Errorf("%w in set %d", err, i)
		}
		distinct, _ := core.DedupSources(s.m.NumNodes(), set)
		if len(distinct) == 0 {
			return nil, fmt.Errorf("mh: ImpactDistributionBatch set %d is empty", i)
		}
		spans[i] = laneSpan{lo: len(flat), hi: len(flat) + len(distinct)}
		flat = append(flat, distinct...)
	}
	l := laneLayout{perChunk: true}
	if err := l.place(s.m, flat, 0); err != nil {
		return nil, err
	}
	impacts := make([][]int, len(sets))
	for i := range impacts {
		impacts[i] = make([]int, 0, opts.Samples)
	}
	if err := s.Run(opts, func(x core.PseudoState) { l.countImpacts(spans, x, s.scratch, impacts) }); err != nil {
		return nil, err
	}
	return impacts, nil
}

// laneSpan is the run of queries [lo, hi) that one impact set's
// distinct sources occupy.
type laneSpan struct{ lo, hi int }

// countImpacts sweeps every chunk of x, then appends to impacts[i] the
// number of nodes some lane of set i reaches, less the set's size.
//
//flowlint:hotpath
func (l *laneLayout) countImpacts(spans []laneSpan, x bitset.Set, sc *graph.Scratch, impacts [][]int) {
	for c := range l.seeds {
		l.sweep(c, x, sc)
	}
	n := graph.NodeID(l.g.NumNodes())
	for i, sp := range spans {
		count := 0
	nodes:
		for v := graph.NodeID(0); v < n; v++ {
			for q := sp.lo; q < sp.hi; q++ {
				if l.reached(v, q) {
					count++
					continue nodes
				}
			}
		}
		impacts[i] = append(impacts[i], count-(sp.hi-sp.lo))
	}
}

// CommunityFlowProbsBatch estimates Pr[source_k ~> v | conds] for every
// listed source and every node v from one chain: per thinned sample,
// one wide-lane sweep per chunk of up to MaxLanes sources replaces one
// full reachability sweep per source. The result is indexed
// [source][node]; a single-source batch is bit-identical to
// CommunityFlowProbs on the same RNG.
//
// This is the batched complement of ParallelCommunityFlows: that API
// buys wall-clock with one chain (and one burn-in) per source across
// goroutines, this one buys throughput by sharing a single chain's
// samples across all sources on one core.
func CommunityFlowProbsBatch(m *core.ICM, sources []graph.NodeID, conds []core.FlowCondition, opts Options, r *rng.RNG) ([][]float64, error) {
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
	var l laneLayout
	if err := l.place(s.m, sources, 0); err != nil {
		return nil, err
	}
	n := s.m.NumNodes()
	counts := make([][]int, len(sources))
	for k := range counts {
		counts[k] = make([]int, n)
	}
	if err := s.Run(opts, func(x core.PseudoState) { l.countReached(x, s.scratch, counts) }); err != nil {
		return nil, err
	}
	probs := make([][]float64, len(sources))
	for k, cs := range counts {
		probs[k] = make([]float64, n)
		for v, c := range cs {
			probs[k][v] = float64(c) / float64(opts.Samples)
		}
	}
	return probs, nil
}

// countReached sweeps every chunk of x and increments counts[q][v] for
// every node v that query q's lane reached.
//
//flowlint:hotpath
func (l *laneLayout) countReached(x bitset.Set, sc *graph.Scratch, counts [][]int) {
	for c := range l.seeds {
		reach := l.sweep(c, x, sc)
		lo, _ := l.span(c)
		for v := 0; v < reach.Rows; v++ {
			for j, w := range reach.Row(v) {
				base := lo + j*LaneWidth
				for ; w != 0; w &= w - 1 {
					counts[base+bits.TrailingZeros64(w)][v]++
				}
			}
		}
	}
}
