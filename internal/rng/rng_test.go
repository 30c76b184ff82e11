package rng

import (
	"math"
	"math/big"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: %d != %d", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := NewStream(7, 1)
	b := NewStream(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different streams produced %d identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of uniforms = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for n := 1; n < 20; n++ {
		seen := make([]bool, n)
		for i := 0; i < 200*n; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("Intn(%d) never produced %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(6)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	// Chi-squared with 9 dof; 99.9% critical value is ~27.9.
	expected := float64(trials) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.9 {
		t.Fatalf("chi-squared = %v, distribution looks non-uniform", chi2)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(7)
	const trials = 100000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < trials; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("Bernoulli(%v) rate = %v", p, got)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(8)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := New(9)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(10)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(11)
	err := quick.Check(func(nRaw, kRaw uint8) bool {
		n := int(nRaw%40) + 1
		k := int(kRaw) % (n + 1)
		s := r.Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(12)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(13)
	const n, trials = 20, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Zipf(n, 1.0)]++
	}
	if counts[0] <= counts[n-1] {
		t.Fatalf("Zipf not skewed: first=%d last=%d", counts[0], counts[n-1])
	}
	// Rank 0 should get roughly 1/H(20) of the mass, H(20) ~ 3.6.
	frac := float64(counts[0]) / trials
	if frac < 0.2 || frac > 0.35 {
		t.Fatalf("Zipf rank-0 fraction = %v, want ~0.28", frac)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(99)
	a := parent.Fork()
	b := parent.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked generators produced %d identical outputs", same)
	}
}

// TestKnownAnswers pins the generator's output stream to values
// recorded from the portable 32-bit-limb implementation that preceded
// the math/bits intrinsics: every seeded experiment, golden file and
// served answer depends on these exact words.
func TestKnownAnswers(t *testing.T) {
	check := func(name string, got, want []uint64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s output %d = %#x, want %#x", name, i, got[i], want[i])
			}
		}
	}
	draw := func(r *RNG, k int) []uint64 {
		out := make([]uint64, k)
		for i := range out {
			out[i] = r.Uint64()
		}
		return out
	}
	check("New(1)", draw(New(1), 4),
		[]uint64{0x50eca17fd93c9778, 0xa46d53073a62db81, 0xadaca4d001b89ef7, 0x58be98cfa28a8ffb})
	check("NewStream(7, 3)", draw(NewStream(7, 3), 4),
		[]uint64{0xa10288c777931dce, 0x2d4ead2d516ac038, 0x649b3e7485605d43, 0x0fc04c7e39d411d8})
	parent := New(1)
	check("New(1).Fork()", draw(parent.Fork(), 4),
		[]uint64{0x3dcba044297c58e3, 0xbc1c936dc0ac5d5d, 0x5dc90926fce0683d, 0x7eff61df3ac12ce7})
	check("New(1) after Fork", draw(parent, 1), []uint64{0xadaca4d001b89ef7})

	r := New(2)
	for i, want := range []float64{0.1465085772424889, 0.32633483127481266, 0.44677680466264, 0.4208362209280919} {
		if got := r.Float64(); got != want {
			t.Errorf("New(2) Float64 %d = %v, want %v", i, got, want)
		}
	}
	r = New(3)
	for i, want := range []int{4553, 5840, 520, 6355, 11345, 11830, 4613, 8799} {
		if got := r.Intn(14000); got != want {
			t.Errorf("New(3) Intn(14000) %d = %d, want %d", i, got, want)
		}
	}
}

// mulhi64 is the portable high-word multiply step and boundedUint64
// used before bits.Mul64: four 32-bit partial products. It is the
// reference TestMul64MatchesPortable pins the intrinsic to.
func mulhi64(a, b uint64) uint64 {
	aLo, aHi := a&0xffffffff, a>>32
	bLo, bHi := b&0xffffffff, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	u := aLo*bHi + (t & 0xffffffff)
	return aHi*bHi + (t >> 32) + (u >> 32)
}

// TestMul64MatchesPortable checks the 128-bit product behind step and
// boundedUint64: bits.Mul64's high word equals the portable mulhi64,
// its low word equals the wrapping a*b, and both equal math/big's
// exact product, on the edge operands and random pairs.
func TestMul64MatchesPortable(t *testing.T) {
	edges := []uint64{0, 1, 2, math.MaxUint32, 1 << 32, 1<<63 - 1, 1 << 63, math.MaxUint64}
	var pairs [][2]uint64
	for _, a := range edges {
		for _, b := range edges {
			pairs = append(pairs, [2]uint64{a, b})
		}
	}
	r := New(9)
	for i := 0; i < 10000; i++ {
		pairs = append(pairs, [2]uint64{r.Uint64(), r.Uint64()})
	}
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for _, p := range pairs {
		a, b := p[0], p[1]
		hi, lo := bits.Mul64(a, b)
		exact := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		wantHi := new(big.Int).Rsh(exact, 64).Uint64()
		wantLo := new(big.Int).And(exact, mask).Uint64()
		if hi != wantHi || lo != wantLo || mulhi64(a, b) != wantHi || a*b != wantLo {
			t.Fatalf("%#x * %#x: Mul64 = (%#x, %#x), mulhi64 = %#x, want (%#x, %#x)",
				a, b, hi, lo, mulhi64(a, b), wantHi, wantLo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Float64()
	}
}
