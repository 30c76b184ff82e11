package graph

import "infoflow/internal/bitset"

// Scratch is reusable traversal state for the packed-mask kernels
// (ReachableBitsInto and its reverse, HasPathBits, SearchPathBits and
// the lane wrappers). It exists so the Metropolis-Hastings hot path —
// which runs one traversal per condition check and per query of every
// thinned output sample — performs zero allocations in steady state.
//
// The search's visited set is an epoch-stamped array: stamp[v] records
// the epoch of the last search that visited v, so "reset" is a single
// epoch increment instead of an O(n) clear. Queues are retained between
// traversals and only grow (to at most n entries each), so after the
// first few traversals every call runs entirely in pre-owned memory.
//
// A Scratch is not safe for concurrent use; give each goroutine its own
// (Sampler owns one per chain for exactly this reason). A single Scratch
// may be shared freely across graphs and traversal kinds — it grows to
// the largest node count it has seen.
type Scratch struct {
	stamp []uint32 // stamp[v] == mark ⇒ v visited in the current search
	epoch uint32   // even; forward mark = epoch, backward mark = epoch+1
	queue []NodeID // forward (or BFS) queue, capacity retained across calls
	back  []NodeID // backward queue for bidirectional search

	// seen is the packed visited set of the lane wrappers' per-seed BFS
	// (ReachLanesWideInto and its reverse), kept so they allocate
	// nothing in steady state.
	seen bitset.Set
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
