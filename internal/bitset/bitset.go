// Package bitset provides dense word-packed bit sets over []uint64.
//
// It is the storage substrate of the reachability engine and the one
// representation of a pseudo-state (core.PseudoState is a Set):
// pseudo-states and active-node sets pack 64 edges or nodes per word, so
// clearing, counting and unioning run word-at-a-time (one instruction
// per 64 elements) instead of element-at-a-time. A Set is a plain
// slice: callers on the hot path may range over its words directly (e.g.
// to extract set bits with math/bits.TrailingZeros64) without any
// iterator allocation.
//
// All methods are allocation-free; only New and Grow ever allocate. A
// Set is not safe for concurrent mutation.
package bitset

import "math/bits"

// wordShift and wordMask convert a bit index into a (word, offset) pair.
const (
	wordShift = 6
	wordMask  = 63
)

// Set is a dense bit set. Word w holds bits [64w, 64w+63], least
// significant bit first; the zero value is an empty set of capacity 0.
type Set []uint64

// WordsFor returns the number of uint64 words needed to hold n bits.
func WordsFor(n int) int { return (n + wordMask) >> wordShift }

// New returns a zeroed set with capacity for n bits.
func New(n int) Set { return make(Set, WordsFor(n)) }

// Cap returns the number of bits the set can hold.
func (s Set) Cap() int { return len(s) << wordShift }

// Set marks bit i.
//
//flowlint:hotpath
func (s Set) Set(i int) { s[i>>wordShift] |= 1 << (uint(i) & wordMask) }

// Clear unmarks bit i.
//
//flowlint:hotpath
func (s Set) Clear(i int) { s[i>>wordShift] &^= 1 << (uint(i) & wordMask) }

// Flip toggles bit i with a single XOR — the Metropolis-Hastings
// sampler's pseudo-state moves through exactly this op: one call per
// proposed edge flip, and one more to undo a flip the flow conditions
// reject.
//
//flowlint:hotpath
func (s Set) Flip(i int) { s[i>>wordShift] ^= 1 << (uint(i) & wordMask) }

// Test reports whether bit i is set.
//
//flowlint:hotpath
func (s Set) Test(i int) bool {
	return s[i>>wordShift]>>(uint(i)&wordMask)&1 != 0
}

// Bit returns bit i as 0 or 1, for callers that index or count with it
// instead of branching on it.
//
//flowlint:hotpath
func (s Set) Bit(i int) uint {
	return uint(s[i>>wordShift]>>(uint(i)&wordMask)) & 1
}

// Reset clears every bit, one word store per 64 bits. This is the
// zero-alloc reset the traversal engine relies on: re-zeroing a packed
// visited set costs n/64 stores against the n of a []bool clear.
//
//flowlint:hotpath
func (s Set) Reset() {
	for i := range s {
		s[i] = 0
	}
}

// Count returns the number of set bits (population count).
//
//flowlint:hotpath
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// OrInto unions s into dst (dst |= s). The sets must have the same
// length; mismatched lengths are a caller bug.
//
//flowlint:hotpath
func (s Set) OrInto(dst Set) {
	for i, w := range s {
		dst[i] |= w
	}
}

// AndNotCount returns the popcount of s &^ other — the number of bits
// set in s but not in other — without materialising the difference.
// This is the hot read of the lazy max-coverage ranking: a candidate's
// marginal gain over a covered mask is one AndNotCount. The sets must
// have the same length; mismatched lengths are a caller bug.
//
//flowlint:hotpath
func (s Set) AndNotCount(other Set) int {
	n := 0
	for i, w := range s {
		n += bits.OnesCount64(w &^ other[i])
	}
	return n
}

// Grow returns s if it can hold n bits, else a fresh zeroed set that
// can. Unlike append-style growth the old contents are discarded: Grow
// is a sizing primitive for scratch state, not a resize.
func (s Set) Grow(n int) Set {
	if s.Cap() >= n {
		return s
	}
	return New(n)
}
