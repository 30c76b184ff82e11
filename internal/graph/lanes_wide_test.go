package graph

import (
	"testing"

	"infoflow/internal/bitset"
	"infoflow/internal/rng"
)

// wideSeeding draws `lanes` random seed nodes with the identity lane
// assignment (seed k carries lane k) at the smallest width that fits.
func wideSeeding(r *rng.RNG, n, lanes int) ([]NodeID, *bitset.LaneMatrix) {
	w := (lanes + 63) / 64
	seeds := make([]NodeID, lanes)
	seedBits := bitset.NewLaneMatrix(lanes, w)
	for l := range seeds {
		seeds[l] = NodeID(r.Intn(n))
		seedBits.SetBit(l, l)
	}
	return seeds, seedBits
}

// TestReachLanesWideMatchesScalar proves the W-word sweep agrees lane by
// lane with one closure Reachable per seed, across random graphs,
// masks, widths W ∈ {1, 2, 4, 8} and ragged lane counts that leave the
// top word partly empty (65, 511, ...).
func TestReachLanesWideMatchesScalar(t *testing.T) {
	r := rng.New(41)
	sc := NewScratch(0)
	reach := &bitset.LaneMatrix{}
	laneCounts := []int{1, 63, 64, 65, 100, 128, 200, 256, 300, 511, 512}
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(59)
		g := randomTestGraph(r, n, r.Intn(3*n))
		packed := randomMask(r, g.NumEdges(), r.Float64())
		lanes := laneCounts[trial%len(laneCounts)]
		seeds, seedBits := wideSeeding(r, n, lanes)
		g.ReachLanesWideInto(seeds, seedBits, packed, sc, reach)
		if reach.Rows != n || reach.W != seedBits.W {
			t.Fatalf("trial %d: reach shaped %dx%d, want %dx%d", trial, reach.Rows, reach.W, n, seedBits.W)
		}
		for l := 0; l < lanes; l++ {
			want := g.Reachable([]NodeID{seeds[l]}, maskPred(packed))
			for v := 0; v < n; v++ {
				if got := reach.TestBit(v, l); got != want[v] {
					t.Fatalf("trial %d lane %d (seed %d): node %d lane=%v scalar=%v",
						trial, l, seeds[l], v, got, want[v])
				}
			}
		}
		// No lane above the seeded ones may ever light up.
		for v := 0; v < n; v++ {
			for l := lanes; l < reach.Lanes(); l++ {
				if reach.TestBit(v, l) {
					t.Fatalf("trial %d: node %d carries unseeded lane %d", trial, v, l)
				}
			}
		}
	}
}

// TestReachLanesWideMatches64Lane pins every wider sweep to the 64-lane
// (W = 1) sweep on the same seeding: with the lanes moved into the top
// word of a W-word row, that word must equal the one-word result bit for
// bit and every other word must stay zero. Both runs do the same
// traversals, so the words must be equal, not merely equivalent.
func TestReachLanesWideMatches64Lane(t *testing.T) {
	r := rng.New(42)
	sc := NewScratch(0)
	narrow, reach := &bitset.LaneMatrix{}, &bitset.LaneMatrix{}
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(79)
		g := randomTestGraph(r, n, r.Intn(4*n))
		packed := randomMask(r, g.NumEdges(), r.Float64())
		lanes := 1 + r.Intn(64)
		seeds, narrowBits := wideSeeding(r, n, lanes)
		g.ReachLanesWideInto(seeds, narrowBits, packed, sc, narrow)
		W := []int{2, 4, 16}[trial%3]
		wideBits := bitset.NewLaneMatrix(lanes, W)
		for l := 0; l < lanes; l++ {
			wideBits.SetBit(l, 64*(W-1)+l)
		}
		g.ReachLanesWideInto(seeds, wideBits, packed, sc, reach)
		for v := 0; v < n; v++ {
			row := reach.Row(v)
			if got, want := row[W-1], narrow.Row(v)[0]; got != want {
				t.Fatalf("trial %d W=%d: node %d top word %#x != 64-lane word %#x", trial, W, v, got, want)
			}
			for j, w := range row[:W-1] {
				if w != 0 {
					t.Fatalf("trial %d W=%d: node %d unseeded word %d = %#x", trial, W, v, j, w)
				}
			}
		}
	}
}

// TestLaneEngineMatchesFullSweep pins the LaneEngine shim to its
// contract: whatever flip list it is handed, complete or not, every
// Sweep is bit-identical to a from-scratch ReachLanesWideInto on the
// same mask.
func TestLaneEngineMatchesFullSweep(t *testing.T) {
	r := rng.New(43)
	sc, scRef := NewScratch(0), NewScratch(0)
	for trial := 0; trial < 8; trial++ {
		n := 30 + r.Intn(80)
		g := randomTestGraph(r, n, 2*n+r.Intn(3*n))
		m := g.NumEdges()
		active := randomMask(r, m, 0.25+0.4*r.Float64())
		lanes := []int{1, 64, 65, 130, 511}[trial%5]
		seeds, seedBits := wideSeeding(r, n, lanes)
		e := NewLaneEngine(g)
		reach, want := &bitset.LaneMatrix{}, &bitset.LaneMatrix{}
		for step := 0; step < 20; step++ {
			e.Sweep(seeds, seedBits, active, nil, step%2 == 0, sc, reach)
			g.ReachLanesWideInto(seeds, seedBits, active, scRef, want)
			for v := 0; v < n; v++ {
				got, ref := reach.Row(v), want.Row(v)
				for j := range ref {
					if got[j] != ref[j] {
						t.Fatalf("trial %d step %d: node %d word %d engine %#x != full sweep %#x",
							trial, step, v, j, got[j], ref[j])
					}
				}
			}
			for k := 1 + r.Intn(3); k > 0; k-- {
				active.Flip(r.Intn(m))
			}
		}
	}
}
