package graph

import (
	"testing"

	"infoflow/internal/bitset"
	"infoflow/internal/rng"
)

// transposed rebuilds g with every edge u->v re-added as v->u, in
// EdgeID order. Insertion order assigns dense EdgeIDs, so edge id in
// the transpose corresponds to edge id in g and the same packed active
// mask describes the same pseudo-state in both orientations. A simple
// digraph transposes to a simple digraph, so no AddEdge can fail.
func transposed(t *testing.T, g *DiGraph) *DiGraph {
	t.Helper()
	gt := New(g.NumNodes())
	for _, e := range g.Edges() {
		if _, err := gt.AddEdge(e.To, e.From); err != nil {
			t.Fatalf("transpose AddEdge(%d, %d): %v", e.To, e.From, err)
		}
	}
	return gt
}

// TestReachLanesWideReverseMatchesTransposedForward is the differential
// gate for the reverse sweep: on random graphs and masks, the reverse
// wide sweep over g must be bit-for-bit identical to the forward wide
// sweep over the explicitly transposed graph, across widths 1–16 words
// and ragged lane counts that leave the top word partly empty. This is
// the exact contract the RR-sketch builder leans on — lane L of the
// reverse result IS root_L's reverse-reachability set.
func TestReachLanesWideReverseMatchesTransposedForward(t *testing.T) {
	r := rng.New(53)
	sc, scRef := NewScratch(0), NewScratch(0)
	reach, want := &bitset.LaneMatrix{}, &bitset.LaneMatrix{}
	laneCounts := []int{1, 63, 64, 65, 100, 128, 200, 256, 300, 511, 512, 700, 1000, 1024}
	for trial := 0; trial < 42; trial++ {
		n := 2 + r.Intn(59)
		g := randomTestGraph(r, n, r.Intn(3*n))
		gt := transposed(t, g)
		packed := randomMask(r, g.NumEdges(), r.Float64())
		lanes := laneCounts[trial%len(laneCounts)]
		roots, rootBits := wideSeeding(r, n, lanes)

		g.ReachLanesWideReverseInto(roots, rootBits, packed, sc, reach)
		gt.ReachLanesWideInto(roots, rootBits, packed, scRef, want)

		for v := 0; v < n; v++ {
			got, ref := reach.Row(v), want.Row(v)
			for j := range ref {
				if got[j] != ref[j] {
					t.Fatalf("trial %d (n=%d m=%d lanes=%d): node %d word %d: reverse %#x != transposed forward %#x",
						trial, n, g.NumEdges(), lanes, v, j, got[j], ref[j])
				}
			}
		}
	}
}

// TestReachLanesWideReverseMatchesScalar cross-checks each lane of the
// reverse sweep against the closure Reachable on the transposed graph:
// node u carries lane L iff u reaches roots[L] across active edges in
// g, i.e. iff roots[L] reaches u in the transpose. Independent of the
// wide differential above, this pins the semantics to first principles.
func TestReachLanesWideReverseMatchesScalar(t *testing.T) {
	r := rng.New(54)
	sc := NewScratch(0)
	reach := &bitset.LaneMatrix{}
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(40)
		g := randomTestGraph(r, n, r.Intn(3*n))
		gt := transposed(t, g)
		packed := randomMask(r, g.NumEdges(), r.Float64())
		lanes := 1 + r.Intn(70)
		roots, rootBits := wideSeeding(r, n, lanes)

		g.ReachLanesWideReverseInto(roots, rootBits, packed, sc, reach)
		for l := 0; l < lanes; l++ {
			fwd := gt.Reachable([]NodeID{roots[l]}, maskPred(packed))
			for v := 0; v < n; v++ {
				if got := reach.TestBit(v, l); got != fwd[v] {
					t.Fatalf("trial %d lane %d (root %d): node %d: reverse says %v, transposed Reachable says %v",
						trial, l, roots[l], v, got, fwd[v])
				}
			}
		}
	}
}

// TestReachLanesWideReverseSharedLanes checks the merged-lane contract:
// two roots seeded with the same lane produce the union of their RR
// sets, exactly as in the forward sweep.
func TestReachLanesWideReverseSharedLanes(t *testing.T) {
	r := rng.New(55)
	sc := NewScratch(0)
	shared, a, b := &bitset.LaneMatrix{}, &bitset.LaneMatrix{}, &bitset.LaneMatrix{}
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(40)
		g := randomTestGraph(r, n, r.Intn(3*n))
		packed := randomMask(r, g.NumEdges(), r.Float64())
		u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))

		both := bitset.NewLaneMatrix(2, 1)
		both.SetBit(0, 0)
		both.SetBit(1, 0)
		g.ReachLanesWideReverseInto([]NodeID{u, v}, both, packed, sc, shared)

		one := bitset.NewLaneMatrix(1, 1)
		one.SetBit(0, 0)
		g.ReachLanesWideReverseInto([]NodeID{u}, one, packed, sc, a)
		g.ReachLanesWideReverseInto([]NodeID{v}, one, packed, sc, b)

		for x := 0; x < n; x++ {
			wantBit := a.TestBit(x, 0) || b.TestBit(x, 0)
			if got := shared.TestBit(x, 0); got != wantBit {
				t.Fatalf("trial %d: node %d: shared lane %v, union of singles %v", trial, x, got, wantBit)
			}
		}
	}
}

// TestReachLanesWideReverseZeroAlloc pins the steady-state allocation
// contract: once the scratch and the reach matrix have their shape,
// repeated reverse sweeps (mask churn included) allocate nothing.
func TestReachLanesWideReverseZeroAlloc(t *testing.T) {
	r := rng.New(56)
	n := 400
	g := Random(r, n, 1200)
	m := g.NumEdges()
	packed := randomMask(r, m, 0.4)
	roots, rootBits := wideSeeding(r, n, 512)
	sc := NewScratch(n)
	reach := &bitset.LaneMatrix{}
	for warm := 0; warm < 5; warm++ {
		packed.Flip(r.Intn(m))
		g.ReachLanesWideReverseInto(roots, rootBits, packed, sc, reach)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		packed.Flip(r.Intn(m))
		g.ReachLanesWideReverseInto(roots, rootBits, packed, sc, reach)
	}); allocs != 0 {
		t.Errorf("steady-state reverse sweep allocates %v per run, want 0", allocs)
	}
}

// TestReachableBitsReverseMatchesTransposed pins the packed reverse BFS
// to the closure Reachable on the explicitly transposed graph: node u
// is in the result iff u reaches one of the sinks across active edges
// in g. It also checks that the forward call on the transpose, which
// the reverse call avoids building, gives the same words.
func TestReachableBitsReverseMatchesTransposed(t *testing.T) {
	r := rng.New(57)
	sc := NewScratch(0)
	var got, fwd bitset.Set
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(59)
		g := randomTestGraph(r, n, r.Intn(3*n))
		gt := transposed(t, g)
		packed := randomMask(r, g.NumEdges(), r.Float64())
		sinks := make([]NodeID, 1+r.Intn(3))
		for i := range sinks {
			sinks[i] = NodeID(r.Intn(n))
		}
		want := gt.Reachable(sinks, maskPred(packed))
		got = g.ReachableBitsReverseInto(sinks, packed, sc, got)
		for v := 0; v < n; v++ {
			if got.Test(v) != want[v] {
				t.Fatalf("trial %d: node %d reverse=%v transposed Reachable=%v (sinks %v)", trial, v, got.Test(v), want[v], sinks)
			}
		}
		fwd = gt.ReachableBitsInto(sinks, packed, sc, fwd)
		for i := range got {
			if got[i] != fwd[i] {
				t.Fatalf("trial %d: word %d reverse %#x != transposed forward %#x", trial, i, got[i], fwd[i])
			}
		}
	}
}
