package bitset

import (
	"math/bits"
	"testing"

	"infoflow/internal/rng"
)

func TestSetClearFlipTest(t *testing.T) {
	s := New(130) // crosses two word boundaries
	if got := s.Cap(); got < 130 {
		t.Fatalf("Cap() = %d, want >= 130", got)
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		s.Flip(i)
		if s.Test(i) {
			t.Fatalf("bit %d set after Flip", i)
		}
		s.Flip(i)
		s.Clear(i)
		if s.Test(i) {
			t.Fatalf("bit %d set after Clear", i)
		}
	}
}

// TestAgainstBools drives a Set and a []bool with the same random
// operations and checks every observable agrees.
func TestAgainstBools(t *testing.T) {
	const n = 200
	r := rng.New(7)
	s := New(n)
	ref := make([]bool, n)
	for op := 0; op < 5000; op++ {
		i := r.Intn(n)
		switch r.Intn(4) {
		case 0:
			s.Set(i)
			ref[i] = true
		case 1:
			s.Clear(i)
			ref[i] = false
		case 2:
			s.Flip(i)
			ref[i] = !ref[i]
		case 3:
			if s.Test(i) != ref[i] {
				t.Fatalf("op %d: Test(%d) = %v, ref %v", op, i, s.Test(i), ref[i])
			}
			want := uint(0)
			if ref[i] {
				want = 1
			}
			if s.Bit(i) != want {
				t.Fatalf("op %d: Bit(%d) = %d, ref %d", op, i, s.Bit(i), want)
			}
		}
	}
	want := 0
	for i, b := range ref {
		if s.Test(i) != b {
			t.Fatalf("final: bit %d = %v, ref %v", i, s.Test(i), b)
		}
		if b {
			want++
		}
	}
	if got := s.Count(); got != want {
		t.Fatalf("Count() = %d, want %d", got, want)
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatal("Count after Reset != 0")
	}
}

func TestOrInto(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(3)
	a.Set(64)
	b.Set(64)
	b.Set(99)
	a.OrInto(b)
	for _, i := range []int{3, 64, 99} {
		if !b.Test(i) {
			t.Errorf("bit %d missing from union", i)
		}
	}
	if b.Count() != 3 {
		t.Errorf("union Count = %d, want 3", b.Count())
	}
	if a.Count() != 2 {
		t.Errorf("OrInto mutated the source: Count = %d, want 2", a.Count())
	}
}

func TestGrow(t *testing.T) {
	s := New(10)
	if got := s.Grow(5); &got[0] != &s[0] {
		t.Error("Grow(5) reallocated a sufficient set")
	}
	big := s.Grow(1000)
	if big.Cap() < 1000 {
		t.Errorf("Grow(1000).Cap() = %d", big.Cap())
	}
	if big.Count() != 0 {
		t.Error("grown set not zeroed")
	}
	var nilSet Set
	if nilSet.Grow(1).Cap() < 1 {
		t.Error("nil Set did not grow")
	}
}

// TestWordIteration documents the hot-path idiom: ranging the words and
// peeling bits with TrailingZeros64 visits exactly the set bits.
func TestWordIteration(t *testing.T) {
	s := New(192)
	want := []int{0, 63, 64, 100, 191}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	for wi, w := range s {
		for ; w != 0; w &= w - 1 {
			got = append(got, wi<<6+bits.TrailingZeros64(w))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iterated %v, want %v", got, want)
		}
	}
}

func TestZeroAlloc(t *testing.T) {
	s := New(4096)
	if allocs := testing.AllocsPerRun(100, func() {
		s.Set(17)
		s.Flip(100)
		_ = s.Test(17)
		s.Clear(17)
		_ = s.Count()
		s.Reset()
	}); allocs != 0 {
		t.Errorf("bit ops allocate %v per run, want 0", allocs)
	}
}

func BenchmarkCount4096(b *testing.B) {
	s := New(4096)
	for i := 0; i < 4096; i += 3 {
		s.Set(i)
	}
	b.ReportAllocs()
	total := 0
	for i := 0; i < b.N; i++ {
		total += s.Count()
	}
	_ = total
}

func BenchmarkReset4096(b *testing.B) {
	s := New(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Reset()
	}
}
