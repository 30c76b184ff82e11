package graph

import (
	"infoflow/internal/bitset"
)

// This file is the multi-query tier of the traversal engine: every node
// carries a W-word row of a bitset.LaneMatrix ("reached by lane L"
// bits), so one sweep over one sampled pseudo-state answers up to 64*W
// single-source reachability queries. The sweep has two passes: an
// iterative Tarjan condensation of the active subgraph, then a
// topological lane-mask push in which each touched edge ORs W words.
// Both passes take the orientation as an argument: forward they follow
// out-edges (u -> v reads v = To), reverse they follow the graph's
// in-edge adjacency (reads u = From), which is the forward sweep of the
// transposed graph without materialising it. An SCC is the same set of
// nodes in either orientation.

// condenseInto runs one iterative Tarjan pass over the subgraph of
// active edges reachable from seeds — following in-edges instead of
// out-edges when reverse is set — writing the SCC id of each reached
// node into comp (-1 elsewhere), the nodes grouped by SCC in emission
// order into nodes, and the per-SCC offsets (plus an end sentinel) into
// starts. Tarjan emits SCCs descendants first, so iterating the starts
// in reverse visits components in topological order of the orientation,
// ancestors before descendants. comp is grown and refilled with -1
// here; nodes and starts are appended to from length zero. All three
// are returned (the caller's buffers, or their replacements).
//
//flowlint:hotpath
func (g *DiGraph) condenseInto(seeds []NodeID, reverse bool, active bitset.Set, sc *Scratch, comp []int32, nodes []NodeID, starts []int32) ([]int32, []NodeID, []int32) {
	n := g.NumNodes()
	sc.beginCondense(n)
	if len(comp) < n {
		//flowlint:ignore hotpath -- grows once per scratch (or graph-size change), then reused for good
		comp = make([]int32, n)
	}
	comp = comp[:n]
	for i := range comp {
		comp[i] = -1
	}
	adj := g.out
	if reverse {
		adj = g.in
	}
	idx, low := sc.dfsIdx, sc.dfsLow
	onStack := sc.inq
	tstack := sc.back[:0]  // Tarjan's SCC stack
	dfsN := sc.queue[:0]   // DFS stack: frame f visits node dfsN[f]
	dfsE := sc.dfsEdge[:0] // ... with edge cursor dfsE[f] into adj[dfsN[f]]
	var next int32
	for _, root := range seeds {
		if idx[root] != -1 {
			continue
		}
		idx[root], low[root] = next, next
		next++
		onStack.Set(int(root))
		tstack = append(tstack, root)
		dfsN = append(dfsN, root)
		dfsE = append(dfsE, 0)
		for len(dfsN) > 0 {
			f := len(dfsN) - 1
			v := dfsN[f]
			if ei := dfsE[f]; int(ei) < len(adj[v]) {
				dfsE[f]++
				id := adj[v][ei]
				if !active.Test(int(id)) {
					continue
				}
				e := g.edges[id]
				w := e.To
				if reverse {
					w = e.From
				}
				if idx[w] == -1 {
					idx[w], low[w] = next, next
					next++
					onStack.Set(int(w))
					tstack = append(tstack, w)
					dfsN = append(dfsN, w)
					dfsE = append(dfsE, 0)
				} else if onStack.Test(int(w)) && low[v] > idx[w] {
					low[v] = idx[w]
				}
				continue
			}
			dfsN = dfsN[:f]
			dfsE = dfsE[:f]
			if f > 0 {
				if p := dfsN[f-1]; low[p] > low[v] {
					low[p] = low[v]
				}
			}
			if low[v] == idx[v] {
				c := int32(len(starts))
				starts = append(starts, int32(len(nodes)))
				for {
					w := tstack[len(tstack)-1]
					tstack = tstack[:len(tstack)-1]
					onStack.Clear(int(w))
					comp[w] = c
					nodes = append(nodes, w)
					if w == v {
						break
					}
				}
			}
		}
	}
	starts = append(starts, int32(len(nodes)))
	sc.back = tstack[:0]
	sc.queue = dfsN[:0]
	sc.dfsEdge = dfsE[:0]
	return comp, nodes, starts
}

// pushLanes propagates W-word lane masks over a condensation in
// topological order of its orientation: compWide (one W-word row per
// SCC, zeroed by the caller) is seeded from seeds/seedBits, then
// components are visited ancestors first, each reached node's reach row
// overwritten with its component's mask and every active edge leaving
// it in the orientation (an out-edge forward, an in-edge reverse) ORing
// the mask into the component at its far end. Each active edge within
// the condensed region is touched exactly once here. Rows no lane
// reaches are never written: the caller hands in a cleared reach
// matrix.
//
//flowlint:hotpath
func (g *DiGraph) pushLanes(seeds []NodeID, seedBits *bitset.LaneMatrix, reverse bool, active bitset.Set, comp []int32, nodes []NodeID, starts []int32, compWide []uint64, reach *bitset.LaneMatrix) {
	W := seedBits.W
	for k, v := range seeds {
		src := seedBits.Row(k)
		dst := compWide[int(comp[v])*W:]
		for j, w := range src {
			dst[j] |= w
		}
	}
	adj := g.out
	if reverse {
		adj = g.in
	}
	for c := len(starts) - 2; c >= 0; c-- {
		row := compWide[c*W : c*W+W : c*W+W]
		var lanes uint64
		for _, w := range row {
			lanes |= w
		}
		if lanes == 0 {
			continue
		}
		for i := starts[c]; i < starts[c+1]; i++ {
			v := nodes[i]
			copy(reach.Row(int(v)), row)
			for _, id := range adj[v] {
				if !active.Test(int(id)) {
					continue
				}
				e := g.edges[id]
				far := e.To
				if reverse {
					far = e.From
				}
				dst := compWide[int(comp[far])*W:]
				for j, w := range row {
					dst[j] |= w
				}
			}
		}
	}
}

// growCompWide returns buf resliced (and zeroed) to hold words uint64s,
// growing it when the capacity falls short.
//
//flowlint:hotpath
func growCompWide(buf []uint64, words int) []uint64 {
	if cap(buf) < words {
		// Geometric headroom: the component count varies from sample to
		// sample, and an exact-fit allocation here would turn every new
		// high-water mark into a fresh allocation.
		c := 2 * cap(buf)
		if c < words {
			c = words
		}
		//flowlint:ignore hotpath -- grows to the SCC-count high-water mark, then reused for good
		return make([]uint64, words, c)
	}
	buf = buf[:words]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// reachLanes is the sweep behind ReachLanesWideInto (reverse false) and
// ReachLanesWideReverseInto (reverse true): condense, then push.
//
//flowlint:hotpath
func (g *DiGraph) reachLanes(seeds []NodeID, seedBits *bitset.LaneMatrix, reverse bool, active bitset.Set, sc *Scratch, reach *bitset.LaneMatrix) {
	n := g.NumNodes()
	if sc == nil {
		sc = tempScratch(n)
	}
	W := seedBits.W
	if reach.Rows != n || reach.W != W {
		//flowlint:ignore hotpath -- documented cold fallback on first use or shape change; steady-state callers keep the shape
		reach.Resize(n, W)
	} else {
		reach.Reset()
	}
	comp, nodes, starts := g.condenseInto(seeds, reverse, active, sc, sc.comp, sc.sccNodes[:0], sc.sccStart[:0])
	sc.comp = comp
	compWide := growCompWide(sc.compWide, (len(starts)-1)*W)
	g.pushLanes(seeds, seedBits, reverse, active, comp, nodes, starts, compWide, reach)
	sc.sccNodes = nodes[:0]
	sc.sccStart = starts[:0]
	sc.compWide = compWide[:0]
}

// ReachLanesWideInto runs the bit-parallel reachability sweep: seed
// node seeds[k] is OR-seeded with the W-word lane row seedBits.Row(k),
// and on return reach.Row(v) has lane bit L set iff v is reachable
// (across edges whose bit in active is set) from some node seeded with
// L — every seed counting as reaching itself, matching Reachable's
// contract. One sweep answers up to 64*seedBits.W single-source
// reachability queries; lane assignment is the caller's, and seeding
// several nodes with the same lane or one node with several lanes are
// both legal. reach is resized to (NumNodes, seedBits.W) and
// overwritten. If sc is nil a temporary Scratch is allocated.
//
// The sweep condenses the active subgraph reachable from the seeds into
// strongly connected components (every node of an SCC has the same
// reach row by definition), then pushes lane masks over the
// condensation in topological order — ancestors before descendants, so
// each SCC's mask is final when it propagates and each active edge is
// touched exactly twice in total. A naive monotone worklist instead
// re-processes a node every time lanes merging inside a large component
// reach it on different frontiers; near the percolation threshold the
// samplers operate at, that costs ~8x more pops on the §IV-C reference
// graph.
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
// EdgeID); this is the kernel of the RIS-style influence-maximization
// estimator. reach is resized to (NumNodes, rootBits.W) and
// overwritten. If sc is nil a temporary Scratch is allocated.
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
