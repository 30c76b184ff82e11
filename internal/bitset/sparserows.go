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
// Rows grow by AppendColumn, one column at a time in ascending order,
// and Seal lays the appended columns out: every list row's ids sit,
// row after row, in one backing array cut to their counts, so a
// matrix's lists cost one allocation and hold no spare capacity. A
// row switches to its words as it reaches 2·W columns and never
// switches back. The read methods take a row index and see the columns
// appended up to the last Seal; they answer in O(min(count, W)),
// allocate nothing except Row, and are safe for concurrent use once the
// matrix is sealed. A SparseRows is not safe for concurrent mutation.
type SparseRows struct {
	rows  []sparseRow
	ids   []uint32 // every list row's ids, row after row (see Seal)
	cols  int
	words int // WordsFor(cols): the length of a dense row

	stage *columnStage // the columns appended since the last Seal; nil when none
}

// sparseRow is one row: ids while it is a list, words once it is
// dense (ids is then nil).
type sparseRow struct {
	ids   []uint32
	words []uint64
}

// columnStage holds the columns appended since the last Seal: the list
// rows each column gained, column after column, in fixed-size chunks
// that never move, the end of each column's entries, and how many
// entries each row has staged. A row that turns dense takes its later
// columns straight into its words, so a row stages fewer than 2·W
// entries and the staged entries never take more than the dense
// matrix's bytes.
type columnStage struct {
	chunks [][]uint32 // row indices, stageChunk to a chunk
	size   int        // entries staged
	ends   []int      // ends[c]: the end of column c's entries, for c <= last
	last   int        // the last column appended, -1 before the first
	counts []uint32   // entries staged per row
}

// stageChunk is the number of row indices in one chunk of a
// columnStage: 64 KB.
const stageChunk = 1 << 14

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
// which must hold Rows() bits; reads see it after the next Seal. c must
// exceed every column appended before it since the last Reset, which
// keeps list rows sorted. A list row stages c; a dense row, or a list
// row that c brings to 2·W columns, takes it into its words at once.
// The first append after a Seal allocates the stage, and staging then
// allocates only a 64 KB chunk every stageChunk entries; Reset keeps
// the stage, so restaging a reset matrix allocates nothing.
//
//flowlint:hotpath
func (m *SparseRows) AppendColumn(c int, rows Set) {
	st := m.stage
	if st == nil {
		//flowlint:ignore hotpath -- once per Seal: the stage is kept across Resets
		st = &columnStage{ends: make([]int, m.cols), last: -1, counts: make([]uint32, len(m.rows))}
		m.stage = st
	}
	for ; st.last < c-1; st.last++ {
		st.ends[st.last+1] = st.size // a column skipped since the last: empty
	}
	word, bit := c>>wordShift, uint64(1)<<(uint(c)&wordMask)
	full := 2*m.words - 1 // the most ids a list holds
	for wi, w := range rows {
		for ; w != 0; w &= w - 1 {
			r := wi<<wordShift + bits.TrailingZeros64(w)
			row := &m.rows[r]
			if row.words == nil && len(row.ids)+int(st.counts[r]) == full {
				m.densify(row)
			}
			if row.words != nil {
				row.words[word] |= bit
				continue
			}
			st.counts[r]++
			st.push(uint32(r))
		}
	}
	st.ends[c], st.last = st.size, c
}

// push stages row index r.
func (st *columnStage) push(r uint32) {
	chunk := st.size / stageChunk
	if chunk == len(st.chunks) {
		st.chunks = append(st.chunks, make([]uint32, stageChunk))
	}
	st.chunks[chunk][st.size%stageChunk] = r
	st.size++
}

// densify switches a list row to W dense words holding its ids. The
// columns it has staged stay staged; Seal sets their bits.
func (m *SparseRows) densify(row *sparseRow) {
	words := New(m.cols)
	orIDs(row.ids, words)
	row.ids, row.words = nil, words
}

// Seal lays out the columns appended since the last Seal, after which
// the reads see them. Every list row keeps its ids and gains its staged
// ones, ascending, in one backing array holding exactly the lists' ids:
// the array kept from before is reused when every list is empty (as
// after Reset) and it is long enough, and a new one is allocated
// otherwise. Every dense row gains its staged columns' bits. Seal then
// drops the stage, so a sealed matrix holds only its rows.
func (m *SparseRows) Seal() {
	st := m.stage
	if st == nil {
		return
	}
	m.stage = nil
	total, empty := 0, true
	for r := range m.rows {
		if row := &m.rows[r]; row.words == nil {
			total += len(row.ids) + int(st.counts[r])
			empty = empty && len(row.ids) == 0
		}
	}
	ids := m.ids
	if !empty || cap(ids) < total {
		ids = make([]uint32, total)
	}
	off := 0
	for r := range m.rows {
		if row := &m.rows[r]; row.words == nil {
			n := len(row.ids) + int(st.counts[r])
			row.ids = append(ids[off:off:off+n], row.ids...)
			off += n
		}
	}
	m.ids = ids
	// Columns arrive in ascending order, so appending each list row's
	// columns in staging order keeps it sorted.
	start := 0
	for c, end := range st.ends[:st.last+1] {
		for i := start; i < end; i++ {
			row := &m.rows[st.chunks[i/stageChunk][i%stageChunk]]
			if row.words != nil {
				row.words[c>>wordShift] |= 1 << (uint(c) & wordMask)
			} else {
				row.ids = append(row.ids, uint32(c))
			}
		}
		start = end
	}
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

// Bytes returns the bytes a sealed matrix holds: the lists' backing
// array, every dense row's words, and a header per row.
func (m *SparseRows) Bytes() int {
	n := len(m.rows)*int(unsafe.Sizeof(sparseRow{})) + 4*cap(m.ids)
	for _, row := range m.rows {
		n += 8 * len(row.words)
	}
	return n
}

// Reset clears every row but keeps its form and storage: a dense row
// stays dense, and the lists' backing array and the stage of unsealed
// columns are kept. So restaging a matrix that has not been sealed since
// it last staged allocates nothing, and sealing allocates nothing while
// the kept array is long enough.
func (m *SparseRows) Reset() {
	for r := range m.rows {
		row := &m.rows[r]
		row.ids = row.ids[:0]
		clear(row.words)
	}
	if st := m.stage; st != nil {
		st.size, st.last = 0, -1
		clear(st.counts)
	}
}
