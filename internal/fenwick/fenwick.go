// Package fenwick implements a Fenwick (binary indexed) tree over
// non-negative float64 weights with O(log n) point updates and O(log n)
// weighted sampling.
//
// This is the "search tree" of §III-C of the paper: the
// Metropolis-Hastings proposal selects an edge from a multinomial
// distribution whose weights change by one entry per step, so the chain
// needs a structure supporting both update and sample in logarithmic
// time, including maintenance of the normalizing constant Z.
package fenwick

import (
	"fmt"
	"math"

	"infoflow/internal/rng"
)

// Tree is a weighted-sampling Fenwick tree. The zero value is unusable;
// construct with New.
type Tree struct {
	n   int
	top int // largest power of two <= max(n, 1): Find's first step
	// sums holds the 1-based partial sums, sums[i] covering
	// (i-lowbit(i), i], padded with +Inf to 2*top entries so that Find's
	// descent never needs an i <= n test: a step onto the padding
	// compares above every target it accepts.
	sums    []float64
	weights []float64 // current weight of each index, 0-based
	total   float64
	npos    int // exact count of positive weights; guards total against drift
}

// New builds a tree over the given weights. Weights must be finite and
// non-negative; the slice is copied.
func New(weights []float64) *Tree {
	top := topBit(len(weights))
	t := &Tree{
		n:       len(weights),
		top:     top,
		sums:    make([]float64, 2*top),
		weights: make([]float64, len(weights)),
	}
	for i, w := range weights {
		if !validWeight(w) {
			//flowlint:invariant documented contract: weights must be finite and non-negative
			panic(fmt.Sprintf("fenwick: invalid weight %v at %d", w, i))
		}
		t.weights[i] = w
		t.total += w
		if w > 0 {
			t.npos++
		}
	}
	// O(n) bulk build.
	for i := 1; i <= t.n; i++ {
		t.sums[i] += t.weights[i-1]
		if j := i + (i & -i); j <= t.n {
			t.sums[j] += t.sums[i]
		}
	}
	t.pad()
	return t
}

// pad fills the partial sums past n with +Inf (see Tree.sums).
func (t *Tree) pad() {
	for i := t.n + 1; i < len(t.sums); i++ {
		t.sums[i] = math.Inf(1)
	}
}

// Sums is a copy of a tree's partial sums and total. Set maintains both
// incrementally, so they carry the rounding of every update since New,
// and New over the same weights may build different ones: Restore, not
// New, rebuilds the tree they were taken from.
type Sums struct {
	sums  []float64 // Tree.sums without its +Inf padding
	total float64
}

// Sums returns a copy of t's partial sums and total.
func (t *Tree) Sums() Sums {
	return Sums{sums: append([]float64(nil), t.sums[:t.n+1]...), total: t.total}
}

// Bytes returns the size of the copied partial sums.
func (s Sums) Bytes() int { return 8 * len(s.sums) }

// Restore rebuilds the tree s was taken from, given the weights that tree
// held when s was taken: every later Find, Sample and Set on the result
// returns what it would have on that tree. The tree keeps weights rather
// than copying it.
func Restore(weights []float64, s Sums) *Tree {
	if len(weights) != len(s.sums)-1 {
		//flowlint:invariant documented contract: the weights are those of the tree the sums were taken from
		panic(fmt.Sprintf("fenwick: %d weights for sums over %d", len(weights), len(s.sums)-1))
	}
	top := topBit(len(weights))
	t := &Tree{n: len(weights), top: top, sums: make([]float64, 2*top), weights: weights, total: s.total}
	for i, w := range weights {
		if !validWeight(w) {
			//flowlint:invariant documented contract: weights must be finite and non-negative
			panic(fmt.Sprintf("fenwick: invalid weight %v at %d", w, i))
		}
		if w > 0 {
			t.npos++
		}
	}
	copy(t.sums, s.sums)
	t.pad()
	return t
}

// topBit returns the largest power of two <= max(n, 1).
func topBit(n int) int {
	top := 1
	for top<<1 <= n {
		top <<= 1
	}
	return top
}

// validWeight reports whether w is a finite, non-negative weight; both
// comparisons are false for NaN.
func validWeight(w float64) bool { return w >= 0 && w <= math.MaxFloat64 }

// Len returns the number of indices.
func (t *Tree) Len() int { return t.n }

// Total returns the sum of all weights (the normalizing constant Z).
// It is maintained incrementally across Sets, but is exactly zero
// whenever every weight is zero: the positive-weight count is tracked
// exactly, so accumulated roundoff cannot leave a phantom positive
// total over an empty distribution.
func (t *Tree) Total() float64 { return t.total }

// Weight returns the weight at index i.
func (t *Tree) Weight(i int) float64 { return t.weights[i] }

// Set changes the weight at index i to w.
//
//flowlint:hotpath
func (t *Tree) Set(i int, w float64) {
	if !validWeight(w) {
		//flowlint:invariant documented contract: weights must be finite and non-negative
		panic(fmt.Sprintf("fenwick: invalid weight %v at %d", w, i))
	}
	switch {
	case t.weights[i] <= 0 && w > 0:
		t.npos++
	case t.weights[i] > 0 && w <= 0:
		t.npos--
	}
	delta := w - t.weights[i]
	t.weights[i] = w
	t.total += delta
	if t.npos == 0 {
		// Every weight is now zero: snap the incrementally maintained
		// total to exact zero so Sample's empty-distribution guard fires
		// instead of chasing roundoff residue through Find.
		t.total = 0
	}
	for j := i + 1; j <= t.n; j += j & -j {
		t.sums[j] += delta
	}
}

// PrefixSum returns the sum of weights over indices [0, i].
//
//flowlint:hotpath
func (t *Tree) PrefixSum(i int) float64 {
	s := 0.0
	for j := i + 1; j > 0; j -= j & -j {
		s += t.sums[j]
	}
	return s
}

// Sample draws an index with probability proportional to its weight. It
// panics if the total weight is not positive.
//
//flowlint:hotpath
func (t *Tree) Sample(r *rng.RNG) int {
	if t.total <= 0 {
		//flowlint:invariant documented contract: sampling needs a positive total weight
		panic("fenwick: sampling from empty distribution")
	}
	return t.Find(r.Float64() * t.total)
}

// Find returns the smallest index i such that PrefixSum(i) > target,
// clamped to a positive-weight index. It runs in O(log n) by descending
// the implicit tree.
//
// Floating-point roundoff can push the descent off the exact answer in
// two ways, and both must clamp rather than return an unsampleable
// index: the target may equal or exceed Total() (r.Float64()*Total()
// rounds up, or Total() has drifted above the true sum across
// incremental Sets), and the descent itself may land on a zero-weight
// index when a partial sum compares <= target at one level but the
// residual target is then exhausted inside a run of zero weights (e.g.
// a denormal weight that vanishes when added to a larger partial sum).
// In either case the result is snapped to the nearest positive-weight
// index at or below the landing point, falling back to the first one
// above it, so callers always receive an index they could legitimately
// have sampled.
//
// The descent is meant for targets in [0, +Inf), which covers every
// target Sample draws. -0 is treated as 0 and +Inf returns the last
// positive-weight index, as a comparison descent would; a negative or
// NaN target returns the first positive-weight index.
//
// The descent has no data-dependent branch. Each level compares the bit
// patterns of the partial sum and the target as integers, which orders
// exactly as the float comparison for a target in [0, +Inf) while the
// partial sums are finite, once a negative (roundoff) sum is read as
// +0, and selects the step, the residual target and the next level's
// partial sum with the resulting mask. Both candidates for the next level are loaded before the
// comparison resolves, and the +Inf padding past n stands in for the
// bounds test. The partial sums read and the subtractions made are the
// ones a comparison descent makes, so the answer is the same.
//
//flowlint:hotpath
func (t *Tree) Find(target float64) int {
	tb := int64(math.Float64bits(target))
	if uint64(tb) >= infBits {
		return t.findOutside(tb)
	}
	sums := t.sums
	idx := 0 // 1-based position before the answer
	bit := t.top
	sb := int64(math.Float64bits(sums[bit]))
	for bit > 0 {
		half := bit >> 1
		lo := int64(math.Float64bits(sums[idx+half]))     // next sum if this step is not taken
		hi := int64(math.Float64bits(sums[idx+bit+half])) // next sum if it is
		take := ^(tb - sb&^(sb>>63)) >> 63                // all ones iff sum <= target
		rest := int64(math.Float64bits(math.Float64frombits(uint64(tb)) - math.Float64frombits(uint64(sb))))
		tb ^= (tb ^ rest) & take
		sb = lo ^ (lo^hi)&take
		idx += bit & int(take)
		bit = half
	}
	if idx >= t.n || t.weights[idx] <= 0 {
		return t.clampToPositive(idx)
	}
	return idx
}

// infBits is the bit pattern of +Inf. A float64 whose bits, read as an
// unsigned integer, lie below it is +0, a positive denormal or a
// positive finite number: exactly Find's descent domain.
const infBits = 0x7ff0000000000000

// findOutside answers the targets outside [0, +Inf) that Find hands it
// by bit pattern tb: -0 descends as +0, +Inf lands past every prefix
// sum, and a negative or NaN target before the first.
func (t *Tree) findOutside(tb int64) int {
	switch uint64(tb) {
	case 1 << 63: // -0
		return t.Find(0)
	case infBits:
		return t.clampToPositive(t.n)
	}
	return t.clampToPositive(0)
}

// clampToPositive snaps a roundoff-afflicted landing index to the last
// positive-weight index at or below it, or failing that the first one
// above it. It is the cold path of Find: with exact arithmetic it is
// never taken.
func (t *Tree) clampToPositive(idx int) int {
	lo := idx
	if lo > t.n-1 {
		lo = t.n - 1
	}
	for i := lo; i >= 0; i-- {
		if t.weights[i] > 0 {
			return i
		}
	}
	for i := lo + 1; i < t.n; i++ {
		if t.weights[i] > 0 {
			return i
		}
	}
	//flowlint:invariant unreachable: total > 0 guarantees a positive weight exists
	panic("fenwick: no positive weights")
}
