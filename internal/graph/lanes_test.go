package graph

import (
	"testing"

	"infoflow/internal/bitset"
	"infoflow/internal/rng"
)

// packedMask draws a random active-edge mask in both representations,
// reusing scratch_test's randomMask for the scalar one.
func packedMask(r *rng.RNG, m int, p float64) ([]bool, bitset.Set) {
	mask := randomMask(r, m, p)
	return mask, bitset.FromBools(nil, mask)
}

// TestReachableBitsMatchesScalar proves the packed-mask BFS agrees
// bit-for-bit with ReachableInto on random graphs and masks.
func TestReachableBitsMatchesScalar(t *testing.T) {
	r := rng.New(31)
	sc := NewScratch(0)
	var packedDst bitset.Set
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(59)
		g := randomTestGraph(r, n, r.Intn(3*n))
		mask, packed := packedMask(r, g.NumEdges(), r.Float64())
		nSrc := 1 + r.Intn(3)
		sources := make([]NodeID, nSrc)
		for i := range sources {
			sources[i] = NodeID(r.Intn(n))
		}
		want := g.ReachableInto(sources, mask, sc, nil)
		packedDst = g.ReachableBitsInto(sources, packed, sc, packedDst)
		for v := 0; v < n; v++ {
			if packedDst.Test(v) != want[v] {
				t.Fatalf("trial %d: node %d packed=%v scalar=%v (sources %v)",
					trial, v, packedDst.Test(v), want[v], sources)
			}
		}
	}
}

// TestHasPathBitsMatchesScalar proves the packed-mask bidirectional
// search agrees with HasPathScratch (and hence HasPath) everywhere.
func TestHasPathBitsMatchesScalar(t *testing.T) {
	r := rng.New(32)
	sc := NewScratch(0)
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(49)
		g := randomTestGraph(r, n, r.Intn(3*n))
		mask, packed := packedMask(r, g.NumEdges(), r.Float64())
		for q := 0; q < 20; q++ {
			u := NodeID(r.Intn(n))
			v := NodeID(r.Intn(n))
			want := g.HasPathScratch(u, v, mask, sc)
			if got := g.HasPathBits(u, v, packed, sc); got != want {
				t.Fatalf("trial %d: %d~>%d packed=%v scalar=%v", trial, u, v, got, want)
			}
		}
	}
}

// TestReachLanesMatchesScalar proves the 64-lane (W = 1) sweep agrees
// lane by lane with one scalar ReachableInto per source, across random
// graphs, masks, and every lane count 1..64.
func TestReachLanesMatchesScalar(t *testing.T) {
	r := rng.New(33)
	sc := NewScratch(0)
	reach := &bitset.LaneMatrix{}
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(59)
		g := randomTestGraph(r, n, r.Intn(3*n))
		mask, packed := packedMask(r, g.NumEdges(), r.Float64())
		lanes := 1 + trial%64 // sweep the lane counts across trials
		seeds, seedBits := wideSeeding(r, n, lanes)
		g.ReachLanesWideInto(seeds, seedBits, packed, sc, reach)
		if reach.Rows != n || reach.W != 1 {
			t.Fatalf("trial %d: reach shaped %dx%d, want %dx1", trial, reach.Rows, reach.W, n)
		}
		for l := 0; l < lanes; l++ {
			want := g.ReachableInto([]NodeID{seeds[l]}, mask, sc, nil)
			for v := 0; v < n; v++ {
				if got := reach.TestBit(v, l); got != want[v] {
					t.Fatalf("trial %d lane %d (seed %d): node %d lane=%v scalar=%v",
						trial, l, seeds[l], v, got, want[v])
				}
			}
		}
		// No lane above the seeded ones may ever light up.
		if lanes < 64 {
			for v := 0; v < n; v++ {
				if w := reach.Row(v)[0]; w>>uint(lanes) != 0 {
					t.Fatalf("trial %d: node %d carries unseeded lane bits %#x", trial, v, w)
				}
			}
		}
	}
}

// TestReachLanesSharedAndMergedLanes exercises the non-bijective
// seedings the contract allows: several nodes on one lane and several
// lanes on one node.
func TestReachLanesSharedAndMergedLanes(t *testing.T) {
	r := rng.New(34)
	sc := NewScratch(0)
	n := 40
	g := Random(r, n, 120)
	mask, packed := packedMask(r, g.NumEdges(), 0.5)
	// Lane 0 seeded at nodes 1 and 2; node 3 seeded with lanes 1 and 2.
	seedBits := bitset.NewLaneMatrix(3, 1)
	seedBits.SetBit(0, 0)
	seedBits.SetBit(1, 0)
	seedBits.SetBit(2, 1)
	seedBits.SetBit(2, 2)
	reach := &bitset.LaneMatrix{}
	g.ReachLanesWideInto([]NodeID{1, 2, 3}, seedBits, packed, sc, reach)
	multi := g.ReachableInto([]NodeID{1, 2}, mask, sc, nil)
	single := g.ReachableInto([]NodeID{3}, mask, sc, nil)
	for v := 0; v < n; v++ {
		if got := reach.TestBit(v, 0); got != multi[v] {
			t.Fatalf("node %d shared lane 0 = %v, scalar multi-source = %v", v, got, multi[v])
		}
		for _, l := range []int{1, 2} {
			if got := reach.TestBit(v, l); got != single[v] {
				t.Fatalf("node %d lane %d = %v, scalar = %v", v, l, got, single[v])
			}
		}
	}
}

// TestLaneKernelsZeroAlloc pins the steady-state zero-allocation claim
// for the packed kernels once scratch and buffers are warm, with lane
// sweeps at W = 1 and W = 8 sharing one scratch.
func TestLaneKernelsZeroAlloc(t *testing.T) {
	r := rng.New(35)
	n := 400
	g := Random(r, n, 1200)
	_, packed := packedMask(r, g.NumEdges(), 0.4)
	sc := NewScratch(n)
	dst := bitset.New(n)
	reach, wideReach := &bitset.LaneMatrix{}, &bitset.LaneMatrix{}
	seeds, seedBits := wideSeeding(r, n, 64)
	wideSeeds, wideBits := wideSeeding(r, n, 512)
	sources := []NodeID{0}
	// Warm every retained buffer.
	dst = g.ReachableBitsInto(sources, packed, sc, dst)
	g.ReachLanesWideInto(seeds, seedBits, packed, sc, reach)
	g.ReachLanesWideInto(wideSeeds, wideBits, packed, sc, wideReach)
	g.HasPathBits(0, NodeID(n-1), packed, sc)
	if allocs := testing.AllocsPerRun(50, func() {
		dst = g.ReachableBitsInto(sources, packed, sc, dst)
		g.HasPathBits(0, NodeID(n-1), packed, sc)
		g.ReachLanesWideInto(seeds, seedBits, packed, sc, reach)
		g.ReachLanesWideInto(wideSeeds, wideBits, packed, sc, wideReach)
	}); allocs != 0 {
		t.Errorf("packed kernels allocate %v per run, want 0", allocs)
	}
}

// BenchmarkReachLanes64 measures one 64-lane (W = 1) sweep on the
// §IV-C-scale graph — the per-sample cost of answering 64 batched flow
// queries.
func BenchmarkReachLanes64(b *testing.B) {
	r := rng.New(2)
	g := Random(r, 6000, 14000)
	_, packed := packedMask(r, g.NumEdges(), 0.5)
	sc := NewScratch(g.NumNodes())
	seeds, seedBits := wideSeeding(r, g.NumNodes(), 64)
	reach := &bitset.LaneMatrix{}
	g.ReachLanesWideInto(seeds, seedBits, packed, sc, reach)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ReachLanesWideInto(seeds, seedBits, packed, sc, reach)
	}
}

// BenchmarkReachableBits measures the packed single-source sweep against
// which the []bool variant in traverse benchmarks compares.
func BenchmarkReachableBits(b *testing.B) {
	r := rng.New(2)
	g := Random(r, 6000, 14000)
	_, packed := packedMask(r, g.NumEdges(), 0.5)
	sc := NewScratch(g.NumNodes())
	dst := bitset.New(g.NumNodes())
	sources := []NodeID{0}
	dst = g.ReachableBitsInto(sources, packed, sc, dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = g.ReachableBitsInto(sources, packed, sc, dst)
	}
}
