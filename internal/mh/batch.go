package mh

import (
	"fmt"
	"math/bits"

	"infoflow/internal/bitset"
	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// LaneWidth is the number of query lanes one machine word carries: the
// wide sweep packs W = 1..MaxLaneWords such words per node.
const LaneWidth = 64

// MaxLaneWords bounds the lane-mask width of one sweep; at 16 words a
// single sweep answers up to MaxLanes queries. Wider masks stop paying:
// per-edge cost grows linearly with W while the amortised chain cost is
// already negligible at 1024 lanes.
const MaxLaneWords = 16

// MaxLanes is the largest query count one sweep can carry.
const MaxLanes = LaneWidth * MaxLaneWords

// laneWords resolves a requested lane-mask width for k queries: words
// <= 0 selects the smallest width that fits all k in one sweep (capped
// at MaxLaneWords, past which the batch chunks); explicit widths must
// lie in [1, MaxLaneWords].
func laneWords(words, k int) (int, error) {
	if words <= 0 {
		words = (k + LaneWidth - 1) / LaneWidth
		if words > MaxLaneWords {
			words = MaxLaneWords
		}
		if words < 1 {
			words = 1
		}
		return words, nil
	}
	if words > MaxLaneWords {
		return 0, fmt.Errorf("mh: lane width %d words exceeds MaxLaneWords (%d)", words, MaxLaneWords)
	}
	return words, nil
}

// batchScratch is the sampler-held buffer set of the batched
// estimators: per-chunk seed tables, seed-bit matrices and reach
// matrices, plus the shared hit counters. Everything is retained across
// batches on one sampler, so a repeated batch reuses the memory. Reach
// matrices are per-chunk because ImpactDistributionBatchOn reads every
// chunk's lanes after the sample's sweeps.
type batchScratch struct {
	seeds    [][]graph.NodeID
	seedBits []*bitset.LaneMatrix
	reach    []*bitset.LaneMatrix
	hits     []int
}

// prepareLanes shapes the sampler's batch buffers for k queries at the
// given word width — query q lands in chunk q/(64*words), lane
// q mod (64*words), seeded at source(q) — and returns the chunk count.
func (s *Sampler) prepareLanes(k, words int, source func(int) graph.NodeID) int {
	bs := &s.batch
	lanesPer := words * LaneWidth
	nChunks := (k + lanesPer - 1) / lanesPer
	for len(bs.seeds) < nChunks {
		bs.seedBits = append(bs.seedBits, &bitset.LaneMatrix{})
		bs.reach = append(bs.reach, &bitset.LaneMatrix{})
		bs.seeds = append(bs.seeds, nil)
	}
	for c := 0; c < nChunks; c++ {
		lo := c * lanesPer
		hi := min(lo+lanesPer, k)
		seeds := bs.seeds[c][:0]
		sb := bs.seedBits[c]
		sb.Resize(hi-lo, words)
		for q := lo; q < hi; q++ {
			seeds = append(seeds, source(q))
			sb.SetBit(q-lo, q-lo)
		}
		bs.seeds[c] = seeds
	}
	if cap(bs.hits) < k {
		bs.hits = make([]int, k)
	}
	bs.hits = bs.hits[:k]
	for i := range bs.hits {
		bs.hits[i] = 0
	}
	return nChunks
}

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
	return FlowProbBatchWide(m, pairs, conds, opts, 0, r)
}

// FlowProbBatchWide is FlowProbBatch with an explicit lane-mask width
// in words (64 lanes per word, up to MaxLaneWords); words <= 0 picks
// the smallest width covering all pairs. The width only changes how
// queries chunk onto sweeps, never the estimates.
func FlowProbBatchWide(m *core.ICM, pairs []FlowPair, conds []core.FlowCondition, opts Options, words int, r *rng.RNG) ([]float64, error) {
	s, err := NewSampler(m, conds, r)
	if err != nil {
		return nil, err
	}
	return FlowProbBatchWideOn(s, pairs, opts, words)
}

// FlowProbBatchOn is FlowProbBatch running on a caller-constructed
// sampler: the serving layer uses it to keep hold of the chain for
// post-run diagnostics (PostBurnInAcceptanceRate) while coalescing
// concurrent queries into one batch. The sampler must be freshly
// constructed (or at a run boundary); opts.Interrupt cancellation is
// honoured between thinned samples.
func FlowProbBatchOn(s *Sampler, pairs []FlowPair, opts Options) ([]float64, error) {
	return FlowProbBatchWideOn(s, pairs, opts, 0)
}

// FlowProbBatchWideOn is FlowProbBatchWide running on a
// caller-constructed sampler; see FlowProbBatchOn.
func FlowProbBatchWideOn(s *Sampler, pairs []FlowPair, opts Options, words int) ([]float64, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("mh: FlowProbBatch with no pairs")
	}
	words, err := laneWords(words, len(pairs))
	if err != nil {
		return nil, err
	}
	nChunks := s.prepareLanes(len(pairs), words, func(q int) graph.NodeID { return pairs[q].Source })
	err = s.Run(opts, func(core.PseudoState) { s.countFlowHits(pairs, words, nChunks) })
	if err != nil {
		return nil, err
	}
	probs := make([]float64, len(pairs))
	for q, h := range s.batch.hits {
		probs[q] = float64(h) / float64(opts.Samples)
	}
	return probs, nil
}

// countFlowHits is FlowProbBatchWideOn's per-sample body: one wide-lane
// sweep of the current pseudo-state per chunk prepared by prepareLanes,
// then a hit for every pair whose source lane reached its sink.
//
//flowlint:hotpath
func (s *Sampler) countFlowHits(pairs []FlowPair, words, nChunks int) {
	bs := &s.batch
	lanesPer := words * LaneWidth
	for c := 0; c < nChunks; c++ {
		reach := bs.reach[c]
		s.m.G.ReachLanesWideInto(bs.seeds[c], bs.seedBits[c], s.x, s.scratch, reach)
		lo := c * lanesPer
		hi := min(lo+lanesPer, len(pairs))
		for q := lo; q < hi; q++ {
			if reach.TestBit(int(pairs[q].Sink), q-lo) {
				bs.hits[q]++
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
	n := s.m.NumNodes()
	// Flatten every set's distinct sources onto consecutive lanes; a
	// set's impact only depends on the union of its lanes, so duplicates
	// within a set would waste lanes without changing the answer.
	type span struct{ lo, width int }
	spans := make([]span, len(sets))
	var flat []graph.NodeID
	for i, set := range sets {
		for _, src := range set {
			if int(src) < 0 || int(src) >= n {
				return nil, fmt.Errorf("mh: ImpactDistributionBatch set %d: source %d out of range [0, %d)", i, src, n)
			}
		}
		distinct, _ := core.DedupSources(n, set)
		if len(distinct) == 0 {
			return nil, fmt.Errorf("mh: ImpactDistributionBatch set %d is empty", i)
		}
		spans[i] = span{lo: len(flat), width: len(distinct)}
		flat = append(flat, distinct...)
	}
	words, err := laneWords(0, len(flat))
	if err != nil {
		return nil, err
	}
	lanesPer := words * LaneWidth
	nChunks := s.prepareLanes(len(flat), words, func(q int) graph.NodeID { return flat[q] })
	bs := &s.batch
	impacts := make([][]int, len(sets))
	for i := range impacts {
		impacts[i] = make([]int, 0, opts.Samples)
	}
	err = s.Run(opts, func(core.PseudoState) {
		for c := 0; c < nChunks; c++ {
			s.m.G.ReachLanesWideInto(bs.seeds[c], bs.seedBits[c], s.x, s.scratch, bs.reach[c])
		}
		for i, sp := range spans {
			count := 0
		nodes:
			for v := 0; v < n; v++ {
				for j := 0; j < sp.width; j++ {
					q := sp.lo + j
					if bs.reach[q/lanesPer].TestBit(v, q%lanesPer) {
						count++
						continue nodes
					}
				}
			}
			impacts[i] = append(impacts[i], count-sp.width)
		}
	})
	if err != nil {
		return nil, err
	}
	return impacts, nil
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
	return CommunityFlowProbsBatchWide(m, sources, conds, opts, 0, r)
}

// CommunityFlowProbsBatchWide is CommunityFlowProbsBatch with an
// explicit lane-mask width in words; words <= 0 picks the smallest
// width covering all sources. The width only changes how sources chunk
// onto sweeps, never the estimates.
func CommunityFlowProbsBatchWide(m *core.ICM, sources []graph.NodeID, conds []core.FlowCondition, opts Options, words int, r *rng.RNG) ([][]float64, error) {
	s, err := NewSampler(m, conds, r)
	if err != nil {
		return nil, err
	}
	return CommunityFlowProbsBatchWideOn(s, sources, opts, words)
}

// CommunityFlowProbsBatchOn is CommunityFlowProbsBatch running on a
// caller-constructed sampler; see FlowProbBatchOn for why the serving
// layer wants the chain in hand.
func CommunityFlowProbsBatchOn(s *Sampler, sources []graph.NodeID, opts Options) ([][]float64, error) {
	return CommunityFlowProbsBatchWideOn(s, sources, opts, 0)
}

// CommunityFlowProbsBatchWideOn is CommunityFlowProbsBatchWide running
// on a caller-constructed sampler; see FlowProbBatchOn.
func CommunityFlowProbsBatchWideOn(s *Sampler, sources []graph.NodeID, opts Options, words int) ([][]float64, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("mh: CommunityFlowProbsBatch with no sources")
	}
	words, err := laneWords(words, len(sources))
	if err != nil {
		return nil, err
	}
	n := s.m.NumNodes()
	lanesPer := words * LaneWidth
	nChunks := s.prepareLanes(len(sources), words, func(q int) graph.NodeID { return sources[q] })
	bs := &s.batch
	counts := make([][]int, len(sources))
	for k := range counts {
		counts[k] = make([]int, n)
	}
	err = s.Run(opts, func(core.PseudoState) {
		for c := 0; c < nChunks; c++ {
			reach := bs.reach[c]
			s.m.G.ReachLanesWideInto(bs.seeds[c], bs.seedBits[c], s.x, s.scratch, reach)
			lo := c * lanesPer
			for v := 0; v < n; v++ {
				row := reach.Row(v)
				for j, w := range row {
					base := lo + j*LaneWidth
					for ; w != 0; w &= w - 1 {
						counts[base+bits.TrailingZeros64(w)][v]++
					}
				}
			}
		}
	})
	if err != nil {
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
