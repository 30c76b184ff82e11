package mh

import (
	"fmt"

	"infoflow/internal/bitset"
	"infoflow/internal/core"
	"infoflow/internal/graph"
)

// LaneWidth is the number of query lanes one machine word carries: the
// wide sweep packs W = 1..MaxLaneWords such words per node.
const LaneWidth = 64

// MaxLaneWords bounds the lane-mask width of one sweep; at 16 words a
// single sweep answers up to MaxLanes queries. Wider masks stop paying:
// per-edge cost grows linearly with W while the amortised chain cost is
// already negligible at 1024 lanes.
const MaxLaneWords = 16

// MaxLanes is the largest query count one sweep can carry.
const MaxLanes = LaneWidth * MaxLaneWords

// laneLayout places the queries of one batched estimator call on the
// lanes of wide sweeps: query q rides lane q mod 64W of chunk q/64W,
// where W is the sweep's width in 64-lane words, and seeds that lane at
// its node. Every chunk is seeded through one identity matrix (lane l
// by row l), and the width only changes how queries chunk onto sweeps,
// never what a query's lane reaches. Each estimator call places its own
// layout, so nothing outlives the call.
//
// The zero value's fields are the layout's settings: reverse sweeps
// against edge direction (the RR pool), and perChunk gives every chunk
// its own reach matrix (impact, whose source sets can straddle chunks);
// otherwise all chunks share one and a tally must read a chunk right
// after sweeping it.
type laneLayout struct {
	reverse  bool
	perChunk bool

	g     *graph.DiGraph
	k     int                  // queries placed
	lanes int                  // lanes per chunk, 64W
	ident *bitset.LaneMatrix   // row l seeds lane l, shared by every chunk
	seeds [][]graph.NodeID     // seeds[c][l]: the node lane l of chunk c starts from
	reach []*bitset.LaneMatrix // reach[c]: chunk c's last sweep (all alias one unless perChunk)
}

// place shapes the layout for len(seeds) queries at words 64-lane words
// per sweep (<= 0 picks the narrowest width that fits every query in one
// sweep, capped at MaxLaneWords). It rejects a seed that is not a node
// of m and an explicit width above MaxLaneWords.
func (l *laneLayout) place(m *core.ICM, seeds []graph.NodeID, words int) error {
	if err := checkNodes(m, "source", seeds...); err != nil {
		return err
	}
	words, err := laneWords(words, len(seeds))
	if err != nil {
		return err
	}
	l.g, l.k, l.lanes = m.G, len(seeds), words*LaneWidth
	l.ident = bitset.NewLaneMatrix(min(l.k, l.lanes), words)
	for r := 0; r < l.ident.Rows; r++ {
		l.ident.SetBit(r, r)
	}
	chunks := (l.k + l.lanes - 1) / l.lanes
	l.seeds = make([][]graph.NodeID, chunks)
	l.reseed(seeds)
	l.reach = make([]*bitset.LaneMatrix, chunks)
	for c := range l.reach {
		if c == 0 || l.perChunk {
			l.reach[c] = &bitset.LaneMatrix{}
		} else {
			l.reach[c] = l.reach[0]
		}
	}
	return nil
}

// laneWords resolves a requested lane-mask width for k queries: words
// <= 0 selects the smallest width that fits all k in one sweep (capped
// at MaxLaneWords, past which the batch chunks); explicit widths must
// lie in [1, MaxLaneWords].
func laneWords(words, k int) (int, error) {
	if words <= 0 {
		return min(max((k+LaneWidth-1)/LaneWidth, 1), MaxLaneWords), nil
	}
	if words > MaxLaneWords {
		return 0, fmt.Errorf("mh: lane width %d words exceeds MaxLaneWords (%d)", words, MaxLaneWords)
	}
	return words, nil
}

// span returns the queries chunk c carries: lane l of the chunk is
// query lo+l, for lo+l < hi.
//
//flowlint:hotpath
func (l *laneLayout) span(c int) (lo, hi int) {
	lo = c * l.lanes
	return lo, min(lo+l.lanes, l.k)
}

// reseed points every chunk at its share of seeds, which must hold one
// node of the graph per placed query; nothing is copied or checked.
//
//flowlint:hotpath
func (l *laneLayout) reseed(seeds []graph.NodeID) {
	for c := range l.seeds {
		lo, hi := l.span(c)
		l.seeds[c] = seeds[lo:hi]
	}
}

// sweep runs chunk c's lane sweep over the active edges x and returns
// its reach matrix: row v carries lane l iff v is reachable from lane
// l's seed (or, reversed, reaches it).
//
//flowlint:hotpath
func (l *laneLayout) sweep(c int, x bitset.Set, sc *graph.Scratch) *bitset.LaneMatrix {
	reach := l.reach[c]
	if l.reverse {
		l.g.ReachLanesWideReverseInto(l.seeds[c], l.ident, x, sc, reach)
	} else {
		l.g.ReachLanesWideInto(l.seeds[c], l.ident, x, sc, reach)
	}
	return reach
}

// reached reports whether query q's lane reached node v in the last
// sweep of q's chunk.
//
//flowlint:hotpath
func (l *laneLayout) reached(v graph.NodeID, q int) bool {
	return l.reach[q/l.lanes].TestBit(int(v), q%l.lanes)
}
