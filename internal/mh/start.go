package mh

import (
	"infoflow/internal/bitset"
	"infoflow/internal/core"
	"infoflow/internal/fenwick"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// Start is a compact copy of a chain, taken by Keep: only what a Sampler
// cannot rebuild bit for bit. It holds the pseudo-state, the proposal
// tree's partial sums and total (which carry the rounding of every
// accepted flip, so rebuilding them from the state would change later
// proposals), the certificates' members and marks, the RNG state and
// the step counters. It holds no traversal scratch and no proposal
// weights: each weight is p or 1-p by the edge's bit, recomputed
// exactly. A Start is never modified, so goroutines may Clone one
// concurrently.
type Start struct {
	m     *core.ICM
	conds []core.FlowCondition
	r     rng.RNG

	steps, accepted, winSteps, winAccepted int64
	uniform                                bool

	x     core.PseudoState
	sums  fenwick.Sums
	certs [2][]certificate
}

// Keep returns a compact copy of the chain as it stands. The serving
// layer keeps one per burned-in chain start and Clones it for every
// batch that starts there.
func (s *Sampler) Keep() *Start {
	return &Start{
		m: s.m, conds: s.conds, r: *s.r,
		steps: s.steps, accepted: s.accepted, winSteps: s.winSteps, winAccepted: s.winAccepted,
		uniform: s.uniform,
		x:       append(core.PseudoState(nil), s.x...),
		sums:    s.tree.Sums(),
		certs:   copyCerts(s.certs, 0),
	}
}

// Clone returns a runnable chain that resumes from st: every later draw,
// proposal, certificate search and counter equals that of the chain st
// was kept from, had it gone on from there.
func (st *Start) Clone() *Sampler {
	n := st.m.NumNodes()
	r := st.r
	s := &Sampler{
		m: st.m, conds: st.conds, r: &r,
		steps: st.steps, accepted: st.accepted, winSteps: st.winSteps, winAccepted: st.winAccepted,
		uniform: st.uniform,
		x:       append(core.PseudoState(nil), st.x...),
		scratch: graph.NewScratch(n),
		certs:   copyCerts(st.certs, n),
	}
	if len(st.conds) > 0 {
		s.via = make([]graph.EdgeID, n)
		s.path = make([]graph.EdgeID, 0, n)
	}
	s.tree = fenwick.Restore(s.weights(), st.sums)
	return s
}

// Bytes returns the size of the state st copies: pseudo-state, partial
// sums and certificates.
func (st *Start) Bytes() int {
	b := 8*len(st.x) + st.sums.Bytes()
	for _, certs := range st.certs {
		for _, c := range certs {
			b += 8*len(c.mark) + 4*len(c.members)
		}
	}
	return b
}

// Clone returns a deep copy of s, sharing only the model and the
// condition list: stepping either chain leaves the other unchanged, and
// the copy's every later draw, proposal, certificate search and counter
// equals the original's.
func (s *Sampler) Clone() *Sampler { return s.Keep().Clone() }

// copyCerts deep-copies certificates, giving each members slice at least
// capacity memberCap (a sampler's certificates keep n, so renewing one
// never allocates).
func copyCerts(src [2][]certificate, memberCap int) [2][]certificate {
	var dst [2][]certificate
	for on, certs := range src {
		if len(certs) == 0 {
			continue
		}
		dst[on] = make([]certificate, len(certs))
		for k, c := range certs {
			c.mark = append(bitset.Set(nil), c.mark...)
			c.members = append(make([]int32, 0, max(memberCap, len(c.members))), c.members...)
			dst[on][k] = c
		}
	}
	return dst
}
