package bitset

// LaneMatrix is a dense, strided matrix of lane masks: Rows rows of W
// consecutive uint64 words each, row r occupying Bits[r*W : (r+1)*W].
// Each row holds one node's masks in the lane interface
// graph.ReachLanesWideInto keeps for the serving benchmark (one bit per
// query lane). An RR pool's cover is a SparseRows.
//
// The fields are exported so callers can index the backing slice
// directly; everything else should go through the methods. Within a row, lane L
// lives in word L/64, bit L%64 — the same least-significant-bit-first
// layout as Set, so word-peeling iteration (w &= w-1 with
// bits.TrailingZeros64) works per word exactly as it does on a Set.
//
// The zero value is an empty matrix; Resize makes it usable. A
// LaneMatrix is not safe for concurrent mutation.
type LaneMatrix struct {
	Bits []uint64 // row-major backing store, len == Rows*W
	W    int      // words per row (the stride)
	Rows int
}

// NewLaneMatrix returns a zeroed matrix of rows rows and w words per
// row.
func NewLaneMatrix(rows, w int) *LaneMatrix {
	return &LaneMatrix{Bits: make([]uint64, rows*w), W: w, Rows: rows}
}

// Lanes returns the lane capacity of one row, 64*W.
func (m *LaneMatrix) Lanes() int { return m.W << wordShift }

// Row returns row r as a full slice expression over the backing store:
// writes through it land in the matrix, and appends cannot clobber the
// next row.
//
//flowlint:hotpath
func (m *LaneMatrix) Row(r int) []uint64 {
	lo := r * m.W
	return m.Bits[lo : lo+m.W : lo+m.W]
}

// SetBit sets lane bit lane of row r.
//
//flowlint:hotpath
func (m *LaneMatrix) SetBit(r, lane int) {
	m.Bits[r*m.W+lane>>wordShift] |= 1 << (uint(lane) & wordMask)
}

// TestBit reports whether lane bit lane of row r is set.
//
//flowlint:hotpath
func (m *LaneMatrix) TestBit(r, lane int) bool {
	return m.Bits[r*m.W+lane>>wordShift]>>(uint(lane)&wordMask)&1 != 0
}

// Reset clears every word.
//
//flowlint:hotpath
func (m *LaneMatrix) Reset() {
	for i := range m.Bits {
		m.Bits[i] = 0
	}
}

// ResetRow clears row r.
//
//flowlint:hotpath
func (m *LaneMatrix) ResetRow(r int) {
	row := m.Row(r)
	for i := range row {
		row[i] = 0
	}
}

// Resize shapes the matrix to rows x w and clears it, reusing the
// backing store when it is large enough. Like Set.Grow it is a sizing
// primitive for scratch state: previous contents are always discarded.
func (m *LaneMatrix) Resize(rows, w int) {
	need := rows * w
	if cap(m.Bits) < need {
		m.Bits = make([]uint64, need)
	} else {
		m.Bits = m.Bits[:need]
		for i := range m.Bits {
			m.Bits[i] = 0
		}
	}
	m.W = w
	m.Rows = rows
}
