package fenwick

import (
	"math"
	"testing"
	"testing/quick"

	"infoflow/internal/rng"
)

func TestBuildAndPrefixSums(t *testing.T) {
	tr := New([]float64{1, 2, 3, 4})
	if tr.Total() != 10 {
		t.Fatalf("total = %v", tr.Total())
	}
	wants := []float64{1, 3, 6, 10}
	for i, w := range wants {
		if got := tr.PrefixSum(i); got != w {
			t.Fatalf("prefix(%d) = %v want %v", i, got, w)
		}
	}
}

func TestSetUpdates(t *testing.T) {
	tr := New([]float64{1, 1, 1})
	tr.Set(1, 5)
	if tr.Total() != 7 {
		t.Fatalf("total = %v", tr.Total())
	}
	if tr.Weight(1) != 5 {
		t.Fatalf("weight = %v", tr.Weight(1))
	}
	if got := tr.PrefixSum(1); got != 6 {
		t.Fatalf("prefix(1) = %v", got)
	}
	tr.Set(1, 0)
	if tr.Total() != 2 || tr.PrefixSum(2) != 2 {
		t.Fatal("zeroing failed")
	}
}

func TestFindBoundaries(t *testing.T) {
	tr := New([]float64{2, 0, 3})
	cases := []struct {
		target float64
		want   int
	}{
		{0, 0}, {1.999, 0}, {2, 2}, {4.999, 2},
	}
	for _, c := range cases {
		if got := tr.Find(c.target); got != c.want {
			t.Errorf("Find(%v) = %d want %d", c.target, got, c.want)
		}
	}
	// Roundoff overshoot clamps to last positive index.
	if got := tr.Find(5.0); got != 2 {
		t.Errorf("Find(total) = %d", got)
	}
}

func TestSampleDistribution(t *testing.T) {
	r := rng.New(7)
	weights := []float64{1, 0, 3, 6}
	tr := New(weights)
	const trials = 200000
	counts := make([]int, len(weights))
	for i := 0; i < trials; i++ {
		counts[tr.Sample(r)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index sampled %d times", counts[1])
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / trials
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d frequency %v want %v", i, got, want)
		}
	}
}

func TestSampleAfterUpdates(t *testing.T) {
	r := rng.New(8)
	tr := New([]float64{1, 1, 1, 1})
	tr.Set(0, 0)
	tr.Set(3, 2)
	const trials = 100000
	counts := make([]int, 4)
	for i := 0; i < trials; i++ {
		counts[tr.Sample(r)]++
	}
	if counts[0] != 0 {
		t.Fatal("sampled zeroed index")
	}
	if got := float64(counts[3]) / trials; math.Abs(got-0.5) > 0.01 {
		t.Errorf("index 3 frequency = %v", got)
	}
}

func TestPrefixSumMatchesNaive(t *testing.T) {
	err := quick.Check(func(seed uint16, nRaw uint8) bool {
		r := rng.New(uint64(seed))
		n := int(nRaw%64) + 1
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = r.Float64() * 10
		}
		tr := New(weights)
		// Random updates.
		for k := 0; k < 10; k++ {
			i := r.Intn(n)
			w := r.Float64() * 5
			weights[i] = w
			tr.Set(i, w)
		}
		sum := 0.0
		for i, w := range weights {
			sum += w
			if math.Abs(tr.PrefixSum(i)-sum) > 1e-9 {
				return false
			}
		}
		return math.Abs(tr.Total()-sum) < 1e-9
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFindIsInverseOfPrefixSum(t *testing.T) {
	err := quick.Check(func(seed uint16, nRaw uint8) bool {
		r := rng.New(uint64(seed))
		n := int(nRaw%32) + 1
		weights := make([]float64, n)
		for i := range weights {
			if r.Bernoulli(0.7) {
				weights[i] = r.Float64()*4 + 0.01
			}
		}
		tr := New(weights)
		if tr.Total() <= 0 {
			return true
		}
		for k := 0; k < 20; k++ {
			target := r.Float64() * tr.Total()
			i := tr.Find(target)
			// Invariant: prefix(i-1) <= target < prefix(i), with weight>0.
			if weights[i] <= 0 {
				return false
			}
			lo := 0.0
			if i > 0 {
				lo = tr.PrefixSum(i - 1)
			}
			if !(lo <= target+1e-9 && target < tr.PrefixSum(i)+1e-9) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFindDenormalZeroLanding is the regression case for the roundoff
// clamp: a denormal weight that vanishes when added to a larger partial
// sum makes the descent land on a trailing zero-weight index without
// ever tripping the idx >= n overshoot path. Pre-fix, Find returned
// index 7 (weight 0); it must snap to index 5, the last positive-weight
// index.
func TestFindDenormalZeroLanding(t *testing.T) {
	weights := []float64{0, 0, 0.34709350522491933, 0.5055723942405769, 0, 5e-324, 0, 0}
	tr := New(weights)
	got := tr.Find(tr.Total())
	if got < 0 || got >= len(weights) {
		t.Fatalf("Find(Total) = %d, out of range", got)
	}
	if weights[got] <= 0 {
		t.Fatalf("Find(Total) = %d, a zero-weight index", got)
	}
	if got != 5 {
		t.Errorf("Find(Total) = %d, want 5 (last positive-weight index)", got)
	}
}

// TestFindTargetAtTotal exercises the r.Float64()*Total() == Total()
// overshoot across weight layouts, including all-mass-on-last and
// all-but-last zero.
func TestFindTargetAtTotal(t *testing.T) {
	cases := []struct {
		weights []float64
		want    int
	}{
		{[]float64{0, 0, 0, 2.5}, 3},
		{[]float64{2.5, 0, 0, 0}, 0},
		{[]float64{1, 2, 0, 0}, 1},
		{[]float64{0, 5e-324, 0}, 1},      // lone denormal carries all mass
		{[]float64{5e-324, 5e-324}, 1},    // denormal-only tree
		{[]float64{1e-308, 0, 1e-308}, 2}, // subnormal-adjacent magnitudes
	}
	for _, c := range cases {
		tr := New(c.weights)
		if got := tr.Find(tr.Total()); got != c.want {
			t.Errorf("weights %v: Find(Total=%v) = %d want %d", c.weights, tr.Total(), got, c.want)
		}
		// Just past Total must clamp identically.
		if got := tr.Find(tr.Total() * 2); got != c.want {
			t.Errorf("weights %v: Find(2*Total) = %d want %d", c.weights, got, c.want)
		}
	}
}

// TestSampleNeverReturnsZeroWeight drives Sample and Find with
// adversarial weight mixes (zeros, denormals, huge dynamic range,
// post-Set drift) and asserts the returned index always carries
// positive weight.
func TestSampleNeverReturnsZeroWeight(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 50000; trial++ {
		n := r.Intn(20) + 1
		weights := make([]float64, n)
		for i := range weights {
			switch r.Intn(4) {
			case 0: // stays zero
			case 1:
				weights[i] = 5e-324 * float64(r.Intn(3))
			case 2:
				weights[i] = r.Float64() * 1e-300
			default:
				weights[i] = r.Float64()
			}
		}
		tr := New(weights)
		// Random Sets to accumulate incremental-update drift.
		for k := r.Intn(8); k > 0; k-- {
			i := r.Intn(n)
			w := 0.0
			if r.Bernoulli(0.5) {
				w = r.Float64()
			}
			weights[i] = w
			tr.Set(i, w)
		}
		if tr.Total() <= 0 {
			continue
		}
		targets := []float64{
			tr.Total(),
			math.Nextafter(tr.Total(), 0),
			r.Float64() * tr.Total(),
		}
		for _, target := range targets {
			i := tr.Find(target)
			if i < 0 || i >= n || weights[i] <= 0 {
				t.Fatalf("trial %d: Find(%v) over %v = %d (weight %v)",
					trial, target, weights, i, tr.Weight(i))
			}
		}
		if i := tr.Sample(r); weights[i] <= 0 {
			t.Fatalf("trial %d: Sample over %v = zero-weight index %d", trial, weights, i)
		}
	}
}

// refFind is Find as the comparison descent it replaced: a branch per
// level on the partial sum against the residual target, guarded by the
// next <= n bounds test. It is the reference the branch-free descent is
// pinned to.
func refFind(t *Tree, target float64) int {
	idx := 0
	bit := 1
	for bit<<1 <= t.n {
		bit <<= 1
	}
	for ; bit > 0; bit >>= 1 {
		next := idx + bit
		if next <= t.n && t.sums[next] <= target {
			idx = next
			target -= t.sums[next]
		}
	}
	if idx >= t.n || t.weights[idx] <= 0 {
		return t.clampToPositive(idx)
	}
	return idx
}

// descentWeights draws n weights mixing runs of zeros, denormals, tiny
// and ordinary magnitudes.
func descentWeights(r *rng.RNG, n int) []float64 {
	w := make([]float64, n)
	for i := 0; i < n; {
		run := 1 + r.Intn(4)
		kind := r.Intn(5)
		for ; run > 0 && i < n; run, i = run-1, i+1 {
			switch kind {
			case 0: // a run of zeros
			case 1:
				w[i] = 5e-324 * float64(1+r.Intn(3))
			case 2:
				w[i] = r.Float64() * 1e-300
			default:
				w[i] = r.Float64()
			}
		}
	}
	return w
}

// descentTargets lists the targets Find is checked on for tr: 0, the
// total and its float neighbours, every stored partial sum, the prefix
// sums at the sampled indices (equal across a run of zero weights, so
// these land inside such runs) and their neighbours, and uniform draws
// as Sample makes them.
func descentTargets(r *rng.RNG, tr *Tree) []float64 {
	total := tr.Total()
	ts := []float64{0, total, math.Nextafter(total, math.Inf(1)), math.Nextafter(total, 0)}
	ts = append(ts, tr.sums[1:tr.n+1]...)
	idx := make([]int, 0, tr.n)
	if tr.n <= 256 {
		for i := 0; i < tr.n; i++ {
			idx = append(idx, i)
		}
	} else {
		for k := 0; k < 256; k++ {
			idx = append(idx, r.Intn(tr.n))
		}
	}
	for _, i := range idx {
		ps := tr.PrefixSum(i)
		ts = append(ts, ps, math.Nextafter(ps, math.Inf(1)), math.Nextafter(ps, math.Inf(-1)))
	}
	for k := 0; k < 64; k++ {
		ts = append(ts, r.Float64()*total)
	}
	return ts
}

// TestFindMatchesComparisonDescent pins the branch-free descent to
// refFind over random trees of sizes around powers of two and at the
// §IV-C edge count, before and after random Sets that drive partial
// sums below zero by roundoff, on every target of descentTargets that
// lies in [0, +Inf), and on -0, +Inf and NaN.
func TestFindMatchesComparisonDescent(t *testing.T) {
	r := rng.New(31)
	negative := 0
	for _, n := range []int{1, 2, 3, 63, 64, 65, 127, 128, 129, 14000} {
		trials := 40
		if n > 1000 {
			trials = 4
		}
		for trial := 0; trial < trials; trial++ {
			weights := descentWeights(r, n)
			tr := New(weights)
			for round := 0; round < 3; round++ {
				if tr.Total() > 0 {
					targets := append(descentTargets(r, tr), math.Copysign(0, -1), math.Inf(1), math.NaN())
					for _, target := range targets {
						if target < 0 {
							continue // outside the descent's domain; see TestFindOutsideDomain
						}
						if got, want := tr.Find(target), refFind(tr, target); got != want {
							t.Fatalf("n=%d trial %d round %d: Find(%v) = %d, comparison descent %d",
								n, trial, round, target, got, want)
						}
					}
				}
				for k := 0; k < 4*n; k++ {
					i := r.Intn(n)
					w := 0.0
					if r.Intn(2) == 0 {
						w = descentWeights(r, 1)[0] * 3
					}
					tr.Set(i, w)
				}
				for _, v := range tr.sums[1 : n+1] {
					if v < 0 {
						negative++
						break
					}
				}
			}
		}
	}
	if negative == 0 {
		t.Error("no tree had a negative partial sum; the roundoff case went unexercised")
	}
}

// TestFindOutsideDomain pins Find's answers for targets outside
// [0, +Inf): -0 is 0, +Inf the last positive-weight index, and a
// negative or NaN target the first positive-weight index, also on trees
// whose partial sums roundoff has driven below zero.
func TestFindOutsideDomain(t *testing.T) {
	r := rng.New(37)
	negative := 0
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(70)
		tr := New(descentWeights(r, n))
		for k := r.Intn(3 * n); k > 0; k-- {
			tr.Set(r.Intn(n), r.Float64()*float64(r.Intn(2)))
		}
		if tr.Total() <= 0 {
			continue
		}
		for _, v := range tr.sums[1 : n+1] {
			if v < 0 {
				negative++
				break
			}
		}
		first, last := -1, -1
		for i := 0; i < n; i++ {
			if tr.Weight(i) > 0 {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if got, want := tr.Find(math.Copysign(0, -1)), tr.Find(0); got != want {
			t.Fatalf("trial %d: Find(-0) = %d, Find(0) = %d", trial, got, want)
		}
		if got := tr.Find(math.Inf(1)); got != last {
			t.Fatalf("trial %d: Find(+Inf) = %d, want last positive-weight index %d", trial, got, last)
		}
		for _, target := range []float64{math.NaN(), -5e-324, -1e-17, -1, math.Inf(-1)} {
			if got := tr.Find(target); got != first {
				t.Fatalf("trial %d: Find(%v) = %d, want first positive-weight index %d", trial, target, got, first)
			}
		}
	}
	if negative == 0 {
		t.Error("no tree had a negative partial sum; the roundoff case went unexercised")
	}
}

// TestNonFiniteWeightPanics: weights must be finite, in New and in Set.
func TestNonFiniteWeightPanics(t *testing.T) {
	for _, w := range []float64{math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted weight %v", w)
				}
			}()
			New([]float64{1, w})
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set accepted weight %v", w)
				}
			}()
			New([]float64{1, 2}).Set(0, w)
		}()
	}
}

func TestNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative weight")
		}
	}()
	New([]float64{1, -1})
}

func TestEmptySamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic sampling zero-total tree")
		}
	}()
	New([]float64{0, 0}).Sample(rng.New(1))
}

func BenchmarkSampleAndSet(b *testing.B) {
	r := rng.New(1)
	weights := make([]float64, 14000) // the paper's 14K-edge graph scale
	for i := range weights {
		weights[i] = r.Float64()
	}
	tr := New(weights)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := tr.Sample(r)
		tr.Set(j, 1-tr.Weight(j))
	}
}

// TestRestoreResumesTree: a tree restored from a Sums copy and its
// weights, taken after many incremental Sets, keeps sampling, finding
// and updating exactly as the original does, while New over the same
// weights (exact sums, no Set roundoff) need not. Set on the copy does
// not touch the Sums it came from.
func TestRestoreResumesTree(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000, 14000} {
		r := rng.New(uint64(n) + 1)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = r.Float64()
		}
		orig := New(weights)
		for k := 0; k < 20*n; k++ {
			j := orig.Sample(r)
			orig.Set(j, 1-orig.Weight(j))
		}
		sums := orig.Sums()
		if got, want := sums.Bytes(), 8*(n+1); got != want {
			t.Errorf("n=%d: Sums holds %d bytes, want %d", n, got, want)
		}
		current := make([]float64, n)
		for i := range current {
			current[i] = orig.Weight(i)
		}
		restored := Restore(current, sums)
		if math.Float64bits(restored.Total()) != math.Float64bits(orig.Total()) {
			t.Fatalf("n=%d: restored total %v, original %v", n, restored.Total(), orig.Total())
		}
		if n == 0 {
			continue
		}
		ra, rb := rng.New(9), rng.New(9)
		for k := 0; k < 5000; k++ {
			i, j := orig.Sample(ra), restored.Sample(rb)
			if i != j {
				t.Fatalf("n=%d step %d: restored samples %d, original %d", n, k, j, i)
			}
			w := ra.Float64()
			rb.Float64()
			orig.Set(i, w)
			restored.Set(j, w)
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(orig.PrefixSum(i)) != math.Float64bits(restored.PrefixSum(i)) {
				t.Fatalf("n=%d: prefix sum %d differs after further Sets", n, i)
			}
		}
		again := Restore(append([]float64(nil), current...), sums)
		if math.Float64bits(again.Total()) != math.Float64bits(sums.total) {
			t.Errorf("n=%d: Set on a restored tree changed its Sums", n)
		}
	}
}
