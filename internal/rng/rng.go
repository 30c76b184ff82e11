// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the infoflow library.
//
// Every stochastic component in the library (cascade simulation,
// Metropolis-Hastings chains, synthetic data generators) takes an explicit
// *rng.RNG rather than relying on a global source, so experiments are
// reproducible bit-for-bit given a seed, and independent components can be
// given independent streams via Fork.
//
// The generator is PCG-XSL-RR 128/64 ("pcg64"), a fast permuted
// congruential generator with a 2^128 period and independently seedable
// streams. It is implemented here directly so that results do not depend
// on the Go release's math/rand internals.
package rng

import (
	"math"
	"math/bits"
)

// Multiplier for the 128-bit LCG step (PCG default).
const (
	mulHi = 2549297995355413924
	mulLo = 4865540595714422341
)

// RNG is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; use Fork to derive independent generators for
// concurrent goroutines.
type RNG struct {
	hi, lo uint64 // 128-bit state
	incHi  uint64 // stream selector (must be odd in low word)
	incLo  uint64
}

// New returns a generator seeded from seed on the default stream.
func New(seed uint64) *RNG {
	return NewStream(seed, 0xda3e39cb94b95bdb)
}

// NewStream returns a generator seeded from seed on the given stream.
// Distinct streams yield statistically independent sequences even for the
// same seed.
func NewStream(seed, stream uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed, stream)
	return r
}

// Reseed re-initialises r in place to the exact state NewStream(seed,
// stream) constructs, allocating nothing. Selection loops that need one
// independent stream per evaluated item (the stream-per-candidate
// determinism idiom) reuse a single generator this way instead of
// constructing one per evaluation.
func (r *RNG) Reseed(seed, stream uint64) {
	r.incHi = splitmix(&stream)
	r.incLo = splitmix(&stream) | 1
	r.hi = splitmix(&seed)
	r.lo = splitmix(&seed)
	r.step()
}

// splitmix advances a splitmix64 state and returns the next value. It is
// used only to expand seeds into full generator state.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// step advances the 128-bit LCG state. bits.Mul64 and bits.Add64 are
// compiler intrinsics (one widening multiply, one add with carry); they
// compute the same words as portable 32-bit-limb arithmetic and keep
// Uint64 and Float64 within the inlining budget.
func (r *RNG) step() {
	// (hi,lo) = (hi,lo) * mul + inc, in 128-bit arithmetic.
	hi, lo := bits.Mul64(r.lo, mulLo)
	hi += r.hi*mulLo + r.lo*mulHi
	lo, carry := bits.Add64(lo, r.incLo, 0)
	r.hi, r.lo = hi+r.incHi+carry, lo
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	// XSL-RR output permutation on the pre-step state.
	out := bits.RotateLeft64(r.hi^r.lo, -int(r.hi>>58))
	r.step()
	return out
}

// Fork derives a new, statistically independent generator from r. The
// parent generator advances, so successive forks are themselves
// independent.
func (r *RNG) Fork() *RNG {
	return NewStream(r.Uint64(), r.Uint64())
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		//flowlint:invariant documented contract: Intn requires n > 0
		panic("rng: Intn with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0,bound) using Lemire's
// nearly-divisionless rejection method.
func (r *RNG) boundedUint64(bound uint64) uint64 {
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return hi
		}
	}
}

// Uniform returns a uniform value in [lo,hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Norm returns a standard normal variate using the polar (Marsaglia)
// method.
func (r *RNG) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Exp returns a standard exponential variate.
func (r *RNG) Exp() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a uniformly random permutation of [0,n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Sample returns k distinct indices drawn uniformly from [0,n) in random
// order. It panics if k > n.
func (r *RNG) Sample(n, k int) []int {
	if k > n {
		//flowlint:invariant documented contract: Sample requires k <= n
		panic("rng: Sample with k > n")
	}
	// Partial Fisher-Yates over an index map keeps this O(k) in space for
	// small k relative to n only when using a map; n is modest in all our
	// uses, so the simple O(n) array is fine and faster.
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

// Zipf returns a value in [0,n) with probability proportional to
// 1/(rank+1)^s, for s > 0. It uses inversion on the precomputed CDF held
// by the caller-created ZipfSampler for efficiency; this convenience
// method recomputes weights and is intended for small n.
func (r *RNG) Zipf(n int, s float64) int {
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
	}
	u := r.Float64() * total
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += math.Pow(float64(i+1), -s)
		if u < acc {
			return i
		}
	}
	return n - 1
}
