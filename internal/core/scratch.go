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
// pseudo-state is already the packed edge mask the engine wants, so
// these are thin adapters. The batched estimators in internal/mh call
// the graph kernels directly.

// ActiveNodesInto is ActiveNodes with a packed destination, using sc for
// traversal state: one word-wise reset plus one BFS per call, no
// allocation in steady state. Either sc or dst may be nil, in which case
// it is allocated; the result is dst (or its replacement).
//
//flowlint:hotpath
func (m *ICM) ActiveNodesInto(sources []graph.NodeID, x PseudoState, sc *graph.Scratch, dst bitset.Set) bitset.Set {
	return m.G.ReachableBitsInto(sources, x, sc, dst)
}

// HasFlowScratch is HasFlow using sc for traversal state (nil allocates
// a temporary). It searches bidirectionally with early exit.
//
//flowlint:hotpath
func (m *ICM) HasFlowScratch(u, v graph.NodeID, x PseudoState, sc *graph.Scratch) bool {
	return m.G.HasPathBits(u, v, x, sc)
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
		if m.G.HasPathBits(c.Source, c.Sink, x, sc) != c.Require {
			return false
		}
	}
	return true
}
