package graph

import (
	"testing"

	"infoflow/internal/bitset"
	"infoflow/internal/rng"
)

// randomTestGraph returns a random graph with n nodes and about m edges,
// clamping m to what a simple digraph on n nodes can hold.
func randomTestGraph(r *rng.RNG, n, m int) *DiGraph {
	if max := n * (n - 1); m > max {
		m = max
	}
	return Random(r, n, m)
}

// randomMask builds a random packed edge mask with the given density.
func randomMask(r *rng.RNG, m int, density float64) bitset.Set {
	mask := bitset.New(m)
	for i := 0; i < m; i++ {
		if r.Bernoulli(density) {
			mask.Set(i)
		}
	}
	return mask
}

// maskPred adapts a packed edge mask to the edge predicate of the
// closure reference traversals Reachable and HasPath.
func maskPred(mask bitset.Set) func(EdgeID) bool {
	return func(id EdgeID) bool { return mask.Test(int(id)) }
}

// TestScratchNilAndGrowth covers the convenience paths of the packed
// kernels: nil scratch, nil dst, and reuse of one Scratch across graphs
// of increasing size, each checked against the closure reference.
func TestScratchNilAndGrowth(t *testing.T) {
	r := rng.New(13)
	sc := NewScratch(2)
	for _, n := range []int{3, 8, 40} {
		g := randomTestGraph(r, n, 2*n)
		mask := randomMask(r, g.NumEdges(), 0.6)
		want := g.Reachable([]NodeID{0}, maskPred(mask))
		got := g.ReachableBitsInto([]NodeID{0}, mask, sc, nil)
		for v := range want {
			if got.Test(v) != want[v] {
				t.Fatalf("n=%d node %d: %v vs %v", n, v, got.Test(v), want[v])
			}
		}
		// nil scratch allocates a temporary one.
		got2 := g.ReachableBitsInto([]NodeID{0}, mask, nil, nil)
		for v := range want {
			if got2.Test(v) != want[v] {
				t.Fatalf("nil scratch n=%d node %d: %v vs %v", n, v, got2.Test(v), want[v])
			}
		}
		if g.HasPathBits(0, NodeID(n-1), mask, nil) != want[n-1] {
			t.Fatalf("nil scratch HasPathBits n=%d disagrees", n)
		}
	}
}

// TestScratchEpochWrap drives the epoch counter across its wrap point
// and checks traversals stay correct (stale stamps must not read as
// visited after the wrap resets them).
func TestScratchEpochWrap(t *testing.T) {
	r := rng.New(14)
	g := Random(r, 12, 30)
	mask := randomMask(r, g.NumEdges(), 0.5)
	want := g.Reachable([]NodeID{0}, maskPred(mask))
	sc := NewScratch(g.NumNodes())
	// Fill stamps with a search per target, then force the wrap.
	for v := range want {
		g.HasPathBits(0, NodeID(v), mask, sc)
	}
	sc.epoch = ^uint32(0) - 1
	for i := 0; i < 4; i++ {
		for v := range want {
			if g.HasPathBits(0, NodeID(v), mask, sc) != want[v] {
				t.Fatalf("post-wrap search %d: node %d disagrees with Reachable", i, v)
			}
		}
	}
}
