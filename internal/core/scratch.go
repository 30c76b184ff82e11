package core

import (
	"infoflow/internal/bitset"
	"infoflow/internal/graph"
)

// This file is the model-level face of the allocation-free traversal
// engine in internal/graph: the same active-state derivation, flow
// indicator and condition indicator as ActiveNodes, HasFlow and
// Satisfies, but running on caller-owned scratch state so the
// Metropolis-Hastings hot path performs no allocations per sample. A
// pseudo-state is already the dense []bool edge mask the engine wants,
// so these are thin adapters, and the closure-based APIs remain as thin
// wrappers over them for callers off the hot path.

// ActiveNodesInto is ActiveNodes writing into dst using sc for traversal
// state. Either may be nil, in which case it is allocated; the result is
// dst (or its replacement). dst must not alias x.
//
//flowlint:hotpath
func (m *ICM) ActiveNodesInto(sources []graph.NodeID, x PseudoState, sc *graph.Scratch, dst []bool) []bool {
	return m.G.ReachableInto(sources, x, sc, dst)
}

// HasFlowScratch is HasFlow using sc for traversal state (nil allocates
// a temporary). It additionally searches bidirectionally, so it is the
// faster choice even one-shot.
//
//flowlint:hotpath
func (m *ICM) HasFlowScratch(u, v graph.NodeID, x PseudoState, sc *graph.Scratch) bool {
	return m.G.HasPathScratch(u, v, x, sc)
}

// SatisfiesScratch is Satisfies using sc for traversal state: one
// bidirectional early-exit search per condition, no allocation. Unlike
// Satisfies it does not batch conditions sharing a source into one
// sweep; with the handful of conditions real queries carry, per-condition
// early exit is cheaper than a full reachability sweep.
//
//flowlint:hotpath
func (m *ICM) SatisfiesScratch(x PseudoState, conds []FlowCondition, sc *graph.Scratch) bool {
	for _, c := range conds {
		if m.G.HasPathScratch(c.Source, c.Sink, x, sc) != c.Require {
			return false
		}
	}
	return true
}

// The packed tier: the same indicators over a bit-packed pseudo-state
// (64 edges per word, as maintained by mh.Sampler's shadow state). Both
// are thin adapters over internal/graph's packed kernels; the []bool
// tier above remains the reference semantics. Multi-query estimators
// call graph.ReachLanesWideInto directly.

// ActiveNodesBitsInto is ActiveNodesInto with the pseudo-state and the
// destination packed: one word-wise reset plus one BFS per call, no
// allocation in steady state. The result is dst (or its replacement).
//
//flowlint:hotpath
func (m *ICM) ActiveNodesBitsInto(sources []graph.NodeID, x bitset.Set, sc *graph.Scratch, dst bitset.Set) bitset.Set {
	return m.G.ReachableBitsInto(sources, x, sc, dst)
}

// HasFlowBits is HasFlowScratch over a packed pseudo-state.
//
//flowlint:hotpath
func (m *ICM) HasFlowBits(u, v graph.NodeID, x bitset.Set, sc *graph.Scratch) bool {
	return m.G.HasPathBits(u, v, x, sc)
}
