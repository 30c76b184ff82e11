// Package core implements the paper's information flow model (§II): the
// Independent Cascade Model (ICM) as a directed graph with a per-edge
// activation probability, the betaICM approximation that carries a beta
// distribution per edge, pseudo-states and active-states, cascade
// simulation, exact flow-probability evaluation, and training from
// attributed evidence.
package core

import (
	"fmt"
	"math"

	"infoflow/internal/bitset"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// ICM is a point-probability Independent Cascade Model: a directed graph
// G = (V, E, P) where P maps each edge to its activation probability
// (the probability that an information object at the edge's source
// traverses it).
type ICM struct {
	G *graph.DiGraph
	P []float64 // indexed by EdgeID
}

// NewICM validates and wraps a graph and its activation probabilities.
func NewICM(g *graph.DiGraph, p []float64) (*ICM, error) {
	if len(p) != g.NumEdges() {
		return nil, fmt.Errorf("core: %d probabilities for %d edges", len(p), g.NumEdges())
	}
	for id, v := range p {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return nil, fmt.Errorf("core: activation probability %v on edge %d outside [0,1]", v, id)
		}
	}
	return &ICM{G: g, P: p}, nil
}

// MustNewICM is NewICM that panics on error.
func MustNewICM(g *graph.DiGraph, p []float64) *ICM {
	m, err := NewICM(g, p)
	if err != nil {
		//flowlint:invariant Must* constructor: the caller asserts the inputs are valid
		panic(err)
	}
	return m
}

// NumNodes returns the node count n.
func (m *ICM) NumNodes() int { return m.G.NumNodes() }

// NumEdges returns the edge count m.
func (m *ICM) NumEdges() int { return m.G.NumEdges() }

// Prob returns the activation probability of edge id.
func (m *ICM) Prob(id graph.EdgeID) float64 { return m.P[id] }

// String implements fmt.Stringer.
func (m *ICM) String() string {
	return fmt.Sprintf("ICM(n=%d, m=%d)", m.NumNodes(), m.NumEdges())
}

// PseudoState assigns every edge to be active or inactive irrespective of
// the activity of its parent node (§II, §III-A). It is packed 64 edges
// per word: edge id is active iff bit id is set. Being a bitset.Set, it
// is directly the active-edge mask of the traversal kernels in
// internal/graph.
type PseudoState = bitset.Set

// NewPseudoState returns an all-inactive pseudo-state for m edges.
func NewPseudoState(m int) PseudoState { return bitset.New(m) }

// SamplePseudoState draws a pseudo-state from the model's marginal
// distribution, Equation (3): each edge is active independently with its
// activation probability, one Bernoulli draw per edge in EdgeID order.
// Each 64-edge word is assembled in a register and stored once.
func (m *ICM) SamplePseudoState(r *rng.RNG) PseudoState {
	x := NewPseudoState(m.NumEdges())
	for w := range x {
		ps := m.P[w*64 : min(w*64+64, len(m.P))]
		var word uint64
		for j, p := range ps {
			if r.Bernoulli(p) {
				word |= 1 << uint(j)
			}
		}
		x[w] = word
	}
	return x
}

// LogProbPseudoState returns ln Pr[x | M] per Equation (3).
func (m *ICM) LogProbPseudoState(x PseudoState) float64 {
	if len(x) != bitset.WordsFor(m.NumEdges()) {
		//flowlint:invariant documented contract: a pseudo-state has exactly one word per 64 edges
		panic("core: pseudo-state size mismatch")
	}
	logp := 0.0
	for id, p := range m.P {
		if x.Test(id) {
			logp += logOf(p)
		} else {
			logp += log1pOf(-p)
		}
	}
	return logp
}

// edgeActive adapts a pseudo-state to the edge predicate of the closure
// traversals graph.Reachable and graph.HasPath.
func edgeActive(x PseudoState) func(graph.EdgeID) bool {
	return func(id graph.EdgeID) bool { return x.Test(int(id)) }
}

// ActiveNodes derives from a pseudo-state the set of i-active nodes given
// the object's source set: a node is active iff it is a source or is
// reachable from a source across active edges (the active-state
// derivation of §III-A). It runs the plain closure BFS graph.Reachable,
// the reference the packed ActiveNodesInto is tested against.
func (m *ICM) ActiveNodes(sources []graph.NodeID, x PseudoState) []bool {
	return m.G.Reachable(sources, edgeActive(x))
}

// HasFlow reports whether pseudo-state x gives rise to the end-to-end
// flow u ~> v, the indicator I(u, v; x) of Equation (5).
func (m *ICM) HasFlow(u, v graph.NodeID, x PseudoState) bool {
	return m.HasFlowScratch(u, v, x, nil)
}
