package graph

import "infoflow/internal/bitset"

// Scratch is reusable traversal state for the packed-mask kernels
// (ReachableBitsInto, HasPathBits and the wide-lane sweeps). It exists so
// the Metropolis-Hastings hot path — which runs one traversal per
// condition check and per thinned output sample — performs zero
// allocations in steady state.
//
// The visited set is an epoch-stamped array: stamp[v] records the epoch
// of the last traversal that visited v, so "reset" is a single epoch
// increment instead of an O(n) clear. Queues are retained between
// traversals and only grow (to at most n entries each), so after the
// first few traversals every call runs entirely in pre-owned memory.
//
// A Scratch is not safe for concurrent use; give each goroutine its own
// (Sampler owns one per chain for exactly this reason). A single Scratch
// may be shared freely across graphs and traversal kinds — it grows to
// the largest node count it has seen.
type Scratch struct {
	stamp []uint32 // stamp[v] == mark ⇒ v visited in the current traversal
	epoch uint32   // even; forward mark = epoch, backward mark = epoch+1
	queue []NodeID // forward BFS queue, capacity retained across calls
	back  []NodeID // backward BFS queue for bidirectional search

	// inq marks nodes currently on the Tarjan stack of the lane sweeps
	// (ReachLanesWideInto and its reverse). Packed, because its
	// whole-set reset is a word-wise clear.
	inq bitset.Set

	// Lane-sweep state: the sweep condenses the active subgraph
	// reachable from the seeds into strongly connected components (all
	// nodes of an SCC share one reach row) and propagates lane masks
	// over the condensation in topological order, touching each active
	// edge exactly twice (once in Tarjan's DFS, once in the propagation
	// pass). All buffers are retained across calls; dfsIdx/dfsLow/comp
	// are refilled with -1 per sweep (a memset — cheaper than the
	// re-queueing a monotone worklist pays when lanes merge inside a
	// large SCC).
	dfsIdx   []int32  // Tarjan discovery index, -1 = unvisited
	dfsLow   []int32  // Tarjan lowlink
	comp     []int32  // SCC id per node, -1 = unreachable from seeds
	dfsEdge  []int32  // per-DFS-stack-frame out-edge cursor
	sccNodes []NodeID // nodes grouped by SCC, in emission order
	sccStart []int32  // sccNodes offsets per SCC (+ end sentinel)
	compWide []uint64 // W-word lane masks per SCC
}

// NewScratch returns scratch state sized for graphs of up to n nodes.
// It grows transparently if later used with a larger graph.
func NewScratch(n int) *Scratch {
	return &Scratch{
		stamp: make([]uint32, n),
		queue: make([]NodeID, 0, n),
		back:  make([]NodeID, 0, n),
	}
}

// tempScratch backs a single traversal called with a nil Scratch: the
// queues start empty and grow only to the visited frontier, which for the
// early-exiting searches is usually far smaller than n.
func tempScratch(n int) *Scratch {
	return &Scratch{stamp: make([]uint32, n)}
}

// begin opens a new traversal over n nodes and returns the forward and
// backward visit marks. Stamps are lazily re-zeroed only when the graph
// outgrows the stamp array or the 32-bit epoch wraps (once per ~2^31
// traversals).
func (sc *Scratch) begin(n int) (fwd, bwd uint32) {
	if len(sc.stamp) < n {
		sc.stamp = make([]uint32, n)
		sc.epoch = 0
	}
	if sc.epoch > ^uint32(0)-2 {
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 0
	}
	sc.epoch += 2
	return sc.epoch, sc.epoch + 1
}

// beginCondense opens a condensation pass over n nodes: it sizes the
// on-stack marker and the Tarjan index arrays, clears the marker
// word-wise and refills the discovery indices with -1. Kept separate
// from begin because lane sweeps never touch the epoch stamps; the
// component array is sized and filled by the condensation itself.
func (sc *Scratch) beginCondense(n int) {
	if sc.inq.Cap() < n {
		sc.inq = bitset.New(n)
	} else {
		sc.inq.Reset()
	}
	if len(sc.dfsIdx) < n {
		sc.dfsIdx = make([]int32, n)
		sc.dfsLow = make([]int32, n)
	}
	for i := 0; i < n; i++ {
		sc.dfsIdx[i] = -1
	}
}
