package bitset

import (
	"slices"
	"testing"

	"infoflow/internal/rng"
)

// fillSparse appends to every row of a rows × cols matrix the columns a
// per-row coin keeps, ascending, and returns the matrix with a dense
// reference. Row r keeps a column with probability ((r+1)/rows)², so
// low rows stay lists and high ones switch to dense words.
func fillSparse(r *rng.RNG, rows, cols int) (*SparseRows, []Set) {
	m := NewSparseRows(rows, cols)
	ref := make([]Set, rows)
	for row := range ref {
		ref[row] = New(cols)
	}
	kept := New(rows)
	for c := 0; c < cols; c++ {
		kept.Reset()
		for row := 0; row < rows; row++ {
			if p := float64(row+1) / float64(rows); r.Float64() < p*p {
				kept.Set(row)
				ref[row].Set(c)
			}
		}
		m.AppendColumn(c, kept)
	}
	return m, ref
}

// TestSparseRowsAgainstDense drives a SparseRows and one dense Set per
// row with the same appends and checks every read: Row, TestBit,
// RowCount, Count, and AndNotCount and OrInto against random masks. A
// row is dense exactly when it holds at least 2·W columns, and the
// matrix holds at most the dense bytes plus a header per row. Reset
// empties every row, keeps dense rows dense, and a refill reads as the
// first fill did.
func TestSparseRowsAgainstDense(t *testing.T) {
	r := rng.New(5)
	for _, cols := range []int{1, 63, 64, 200, 640} {
		const rows = 30
		m, ref := fillSparse(r, rows, cols)
		check := func(stage string) {
			t.Helper()
			if m.Rows() != rows || m.Cols() != cols {
				t.Fatalf("cols %d %s: shape %d × %d", cols, stage, m.Rows(), m.Cols())
			}
			total := 0
			for row := 0; row < rows; row++ {
				if got := m.Row(row); !slices.Equal(got, ref[row]) {
					t.Fatalf("cols %d %s: Row(%d) = %#x, want %#x", cols, stage, row, got, []uint64(ref[row]))
				}
				for c := 0; c < cols; c++ {
					if m.TestBit(row, c) != ref[row].Test(c) {
						t.Fatalf("cols %d %s: TestBit(%d, %d) = %v", cols, stage, row, c, m.TestBit(row, c))
					}
				}
				count := ref[row].Count()
				if got := m.RowCount(row); got != count {
					t.Fatalf("cols %d %s: RowCount(%d) = %d, want %d", cols, stage, row, got, count)
				}
				total += count
				mask := New(cols)
				for c := 0; c < cols; c++ {
					if r.Intn(2) == 0 {
						mask.Set(c)
					}
				}
				if got, want := m.AndNotCount(row, mask), ref[row].AndNotCount(mask); got != want {
					t.Fatalf("cols %d %s: AndNotCount(%d) = %d, want %d", cols, stage, row, got, want)
				}
				want := append(Set(nil), mask...)
				ref[row].OrInto(want)
				m.OrInto(row, mask)
				if !slices.Equal(mask, want) {
					t.Fatalf("cols %d %s: OrInto(%d) = %#x, want %#x", cols, stage, row, []uint64(mask), []uint64(want))
				}
			}
			if got := m.Count(); got != total {
				t.Fatalf("cols %d %s: Count() = %d, want %d", cols, stage, got, total)
			}
			if got, bound := m.Bytes(), rows*(8*WordsFor(cols)+64); got > bound {
				t.Fatalf("cols %d %s: %d bytes, bound %d", cols, stage, got, bound)
			}
		}
		check("fill")
		for row := 0; row < rows; row++ {
			if m.IsDense(row) != (ref[row].Count() >= 2*WordsFor(cols)) {
				t.Fatalf("cols %d: row %d holds %d columns, dense %v", cols, row, ref[row].Count(), m.IsDense(row))
			}
		}
		if cols >= 200 && (m.IsDense(0) || !m.IsDense(rows-1)) {
			t.Fatalf("cols %d: the sparsest row is dense %v, the densest %v; want both forms", cols, m.IsDense(0), m.IsDense(rows-1))
		}

		wasDense := make([]bool, rows)
		for row := range wasDense {
			wasDense[row] = m.IsDense(row)
		}
		m.Reset()
		for row := 0; row < rows; row++ {
			if m.RowCount(row) != 0 || m.IsDense(row) != wasDense[row] {
				t.Fatalf("cols %d: after Reset row %d counts %d, dense %v (was %v)", cols, row, m.RowCount(row), m.IsDense(row), wasDense[row])
			}
			ref[row].Reset()
		}
		even := New(rows)
		for row := 0; row < rows; row += 2 {
			even.Set(row)
		}
		for c := 0; c < cols; c += 3 {
			m.AppendColumn(c, even)
			for row := 0; row < rows; row += 2 {
				ref[row].Set(c)
			}
		}
		check("refill")
	}
}

// TestSparseRowsBreakEven: a list row never holds capacity past 2·W−1
// ids, and the append that would make it 2·W ids switches it to W dense
// words.
func TestSparseRowsBreakEven(t *testing.T) {
	const cols = 256 // W = 4: lists hold up to 7 ids
	m := NewSparseRows(1, cols)
	row0 := New(1)
	row0.Set(0)
	for c := 0; c < 7; c++ {
		m.AppendColumn(10*c, row0)
		if m.IsDense(0) || cap(m.rows[0].ids) > 7 {
			t.Fatalf("after %d appends: dense %v, list capacity %d", c+1, m.IsDense(0), cap(m.rows[0].ids))
		}
	}
	m.AppendColumn(70, row0)
	if !m.IsDense(0) || m.rows[0].ids != nil || len(m.rows[0].words) != 4 {
		t.Fatalf("the 8th append left dense %v, %d ids, %d words", m.IsDense(0), len(m.rows[0].ids), len(m.rows[0].words))
	}
	for c := 0; c <= 70; c++ {
		if m.TestBit(0, c) != (c%10 == 0) {
			t.Fatalf("column %d after the switch: %v", c, m.TestBit(0, c))
		}
	}
}

// TestSparseRowsZeroAlloc: the reads the ranking runs allocate nothing,
// and neither does refilling a reset matrix with what it held.
func TestSparseRowsZeroAlloc(t *testing.T) {
	m, _ := fillSparse(rng.New(6), 20, 320)
	mask := New(320)
	var strided [3]Set // strided[k]: every (k+1)-th row
	for k := range strided {
		strided[k] = New(20)
		for row := 0; row < 20; row += k + 1 {
			strided[k].Set(row)
		}
	}
	refill := func() {
		m.Reset()
		for c := 0; c < 320; c++ {
			m.AppendColumn(c, strided[c%3])
		}
	}
	refill()
	if allocs := testing.AllocsPerRun(50, func() {
		for row := 0; row < 20; row++ {
			_ = m.RowCount(row)
			_ = m.AndNotCount(row, mask)
			_ = m.TestBit(row, 100)
			m.OrInto(row, mask)
		}
		refill()
	}); allocs != 0 {
		t.Errorf("reads and refill allocate %v per run, want 0", allocs)
	}
}
