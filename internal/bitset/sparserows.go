package bitset

import (
	"math/bits"
	"slices"
	"unsafe"
)

// SparseRows is a bit matrix stored row by row, each row in whichever
// of two forms is smaller for it: the ascending list of its set
// columns as uint32 ids while it holds fewer than 2·W of them, and W
// dense words, W = WordsFor(cols), from then on. A list of 2·W ids
// takes the 8·W bytes of the words, so every row decides its form from
// its own count: the matrix's bytes follow its set bits when rows are
// sparse and never exceed a dense matrix's plus a fixed header per
// row. Roaring bitmaps switch their containers at the same break-even
// (Chambi, Lemire, Kaser and Godin, "Better bitmap performance with
// Roaring bitmaps", 2016).
//
// Rows grow by AppendColumn, one column at a time in ascending order;
// a row never switches back. The read methods take a row index and
// answer in O(min(count, W)); they allocate nothing except Row, and
// are safe for concurrent use once the matrix is built. A SparseRows
// is not safe for concurrent mutation.
type SparseRows struct {
	rows  []sparseRow
	cols  int
	words int // WordsFor(cols): the length of a dense row
}

// sparseRow is one row: ids while it is a list, words once it is
// dense (ids is then nil on a row that grew into the dense form).
type sparseRow struct {
	ids   []uint32
	words []uint64
}

// NewSparseRows returns an empty matrix of rows rows over cols columns.
// cols must not exceed 1<<32, the range of a uint32 id.
func NewSparseRows(rows, cols int) *SparseRows {
	return &SparseRows{rows: make([]sparseRow, rows), cols: cols, words: WordsFor(cols)}
}

// Rows returns the number of rows.
func (m *SparseRows) Rows() int { return len(m.rows) }

// Cols returns the number of columns.
func (m *SparseRows) Cols() int { return m.cols }

// AppendColumn sets column c in every row whose bit is set in rows,
// which must hold Rows() bits. c must exceed every column already set
// in those rows, which keeps list rows sorted. Filling a list row's
// spare capacity allocates nothing; a full list grows in growRow,
// doubling up to the dense break-even, so a row allocates O(log W)
// times before it switches to its words.
//
//flowlint:hotpath
func (m *SparseRows) AppendColumn(c int, rows Set) {
	word, bit := c>>wordShift, uint64(1)<<(uint(c)&wordMask)
	for wi, w := range rows {
		for ; w != 0; w &= w - 1 {
			row := &m.rows[wi<<wordShift+bits.TrailingZeros64(w)]
			if row.words != nil {
				row.words[word] |= bit
			} else if n := len(row.ids); n < cap(row.ids) {
				row.ids = row.ids[:n+1]
				row.ids[n] = uint32(c)
			} else {
				m.growRow(row, c)
			}
		}
	}
}

// growRow appends c to a list row whose capacity is full: into a list
// of twice the capacity (at least 4), never longer than 2·W−1 ids, or,
// once the list would reach 2·W ids, into W dense words that replace
// it.
func (m *SparseRows) growRow(row *sparseRow, c int) {
	limit := 2 * m.words
	if n := len(row.ids); n+1 < limit {
		ids := make([]uint32, n, min(max(2*n, 4), limit-1))
		copy(ids, row.ids)
		row.ids = append(ids, uint32(c))
		return
	}
	words := New(m.cols)
	orIDs(row.ids, words)
	words.Set(c)
	row.ids, row.words = nil, words
}

// orIDs sets bit id of dst for every id of a list row.
//
//flowlint:hotpath
func orIDs(ids []uint32, dst Set) {
	for _, id := range ids {
		dst[id>>wordShift] |= 1 << (id & wordMask)
	}
}

// IsDense reports whether row r holds dense words rather than a list.
func (m *SparseRows) IsDense(r int) bool { return m.rows[r].words != nil }

// TestBit reports whether column c of row r is set.
func (m *SparseRows) TestBit(r, c int) bool {
	row := &m.rows[r]
	if row.words != nil {
		return Set(row.words).Test(c)
	}
	_, found := slices.BinarySearch(row.ids, uint32(c))
	return found
}

// Row returns row r as a fresh slice of W dense words, in Set's layout.
// It allocates; the ranking reads rows through RowCount, AndNotCount
// and OrInto instead.
func (m *SparseRows) Row(r int) []uint64 {
	out := New(m.cols)
	m.OrInto(r, out)
	return out
}

// RowCount returns the number of set columns in row r.
//
//flowlint:hotpath
func (m *SparseRows) RowCount(r int) int {
	row := &m.rows[r]
	if row.words != nil {
		return Set(row.words).Count()
	}
	return len(row.ids)
}

// AndNotCount returns the number of columns set in row r but not in
// other, which must hold Cols() bits: Set.AndNotCount for one row.
//
//flowlint:hotpath
func (m *SparseRows) AndNotCount(r int, other Set) int {
	row := &m.rows[r]
	if row.words != nil {
		return Set(row.words).AndNotCount(other)
	}
	n := len(row.ids)
	for _, id := range row.ids {
		n -= int(other[id>>wordShift] >> (id & wordMask) & 1)
	}
	return n
}

// OrInto sets in dst, which must hold Cols() bits, every column set in
// row r.
//
//flowlint:hotpath
func (m *SparseRows) OrInto(r int, dst Set) {
	row := &m.rows[r]
	if row.words != nil {
		Set(row.words).OrInto(dst)
		return
	}
	orIDs(row.ids, dst)
}

// Count returns the number of set bits in the whole matrix.
func (m *SparseRows) Count() int {
	n := 0
	for r := range m.rows {
		n += m.RowCount(r)
	}
	return n
}

// Bytes returns the bytes the matrix holds: every row's list capacity
// and dense words, and its per-row header.
func (m *SparseRows) Bytes() int {
	n := len(m.rows) * int(unsafe.Sizeof(sparseRow{}))
	for _, row := range m.rows {
		n += 4*cap(row.ids) + 8*len(row.words)
	}
	return n
}

// Reset clears every row but keeps its form and storage, so refilling
// a matrix with the same rows allocates nothing. Only a row that grows
// past its kept list capacity allocates, and a dense row stays dense.
func (m *SparseRows) Reset() {
	for r := range m.rows {
		row := &m.rows[r]
		row.ids = row.ids[:0]
		clear(row.words)
	}
}
