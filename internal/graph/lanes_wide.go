package graph

import (
	"infoflow/internal/bitset"
)

// This file keeps the multi-query lane interface for callers outside the
// library's estimators: every node carries a W-word row of a
// bitset.LaneMatrix ("reached by lane L" bits). The estimators no longer
// use it; they answer each query with the early-exit kernel of
// lanes.go, which on the subcritical models they serve pays only for
// the nodes a query reaches. The sweeps here are exact wrappers over the
// packed BFS: one traversal per seed.

// reachLanes is the sweep behind ReachLanesWideInto (reverse false) and
// ReachLanesWideReverseInto (reverse true): per seed, one packed BFS in
// the orientation, with the seed's lane row ORed into the reach row of
// every node it reaches.
//
//flowlint:hotpath
func (g *DiGraph) reachLanes(seeds []NodeID, seedBits *bitset.LaneMatrix, reverse bool, active bitset.Set, sc *Scratch, reach *bitset.LaneMatrix) {
	n := g.NumNodes()
	if sc == nil {
		sc = tempScratch(n)
	}
	if reach.Rows != n || reach.W != seedBits.W {
		//flowlint:ignore hotpath -- documented cold fallback on first use or shape change; steady-state callers keep the shape
		reach.Resize(n, seedBits.W)
	} else {
		reach.Reset()
	}
	for k := range seeds {
		sc.seen = g.reachBits(seeds[k:k+1], reverse, active, sc, sc.seen)
		row := seedBits.Row(k)
		for _, v := range sc.queue {
			dst := reach.Row(int(v))
			for j, w := range row {
				dst[j] |= w
			}
		}
	}
}

// ReachLanesWideInto runs the bit-parallel reachability interface: seed
// node seeds[k] is OR-seeded with the W-word lane row seedBits.Row(k),
// and on return reach.Row(v) has lane bit L set iff v is reachable
// (across edges whose bit in active is set) from some node seeded with
// L — every seed counting as reaching itself, matching Reachable's
// contract. Lane assignment is the caller's, and seeding several nodes
// with the same lane or one node with several lanes are both legal.
// reach is resized to (NumNodes, seedBits.W) and overwritten. If sc is
// nil a temporary Scratch is allocated. It costs one ReachableBitsInto
// per seed.
//
//flowlint:hotpath
func (g *DiGraph) ReachLanesWideInto(seeds []NodeID, seedBits *bitset.LaneMatrix, active bitset.Set, sc *Scratch, reach *bitset.LaneMatrix) {
	g.reachLanes(seeds, seedBits, false, active, sc, reach)
}

// ReachLanesWideReverseInto is ReachLanesWideInto with the orientation
// flipped: root roots[k] is OR-seeded with the W-word lane row
// rootBits.Row(k), and on return reach.Row(u) has lane bit L set iff u
// can reach (across edges whose bit in active is set) some node seeded
// with L — every root counting as reaching itself. Lane L of the result
// is therefore the reverse-reachability (RR) set of the nodes carrying
// L, bit for bit what the forward sweep computes on the transposed
// graph (same node IDs, each edge u->v re-added as v->u under the same
// EdgeID). reach is resized to (NumNodes, rootBits.W) and overwritten.
// If sc is nil a temporary Scratch is allocated. It costs one
// ReachableBitsReverseInto per root.
//
//flowlint:hotpath
func (g *DiGraph) ReachLanesWideReverseInto(roots []NodeID, rootBits *bitset.LaneMatrix, active bitset.Set, sc *Scratch, reach *bitset.LaneMatrix) {
	g.reachLanes(roots, rootBits, true, active, sc, reach)
}

// LaneEngine is kept only because servebench/replay.go, the frozen
// serving benchmark, compiles against it. Its Sweep is a plain
// ReachLanesWideInto.
//
// Deprecated: call ReachLanesWideInto.
type LaneEngine struct{ g *DiGraph }

// NewLaneEngine returns a LaneEngine sweeping g (see LaneEngine).
//
// Deprecated: call ReachLanesWideInto.
func NewLaneEngine(g *DiGraph) *LaneEngine { return &LaneEngine{g: g} }

// Sweep is ReachLanesWideInto over the engine's graph; the flip list and
// its completeness flag are ignored (see LaneEngine).
//
// Deprecated: call ReachLanesWideInto.
func (e *LaneEngine) Sweep(seeds []NodeID, seedBits *bitset.LaneMatrix, active bitset.Set, _ []EdgeID, _ bool, sc *Scratch, reach *bitset.LaneMatrix) {
	e.g.ReachLanesWideInto(seeds, seedBits, active, sc, reach)
}
