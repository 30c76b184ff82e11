package core

import (
	"fmt"
	"math"

	"infoflow/internal/graph"
)

// MaxExactNodes bounds the recursive exact evaluator: the memo key is an
// n-bit exclude set, so n must fit in a uint64. The algorithm's cost is
// O((n!)^2)-ish regardless (§II), so anything near this bound is already
// impractical; the limit exists to fail loudly rather than silently
// overflow.
const MaxExactNodes = 62

// RecursiveFlowProb evaluates Pr[u ~> v] by the recursive rewriting of
// the paper's Equation (2): the probability of flow into v is one minus
// the probability that every incident edge fails to deliver, where each
// incident edge delivers if there is flow to its parent excluding v and
// the edge itself activates. Exclusion sets make the recursion
// well-defined on cyclic graphs.
//
// Reproduction note: the paper presents Equation (2) as the exact
// evaluation, but the product over incident edges treats the parent-flow
// events as independent. They are positively associated increasing events
// over shared edge variables (Harris/FKG), so whenever paths to two
// parents of the sink share an upstream edge the recursion OVERESTIMATES
// the true flow probability (e.g. 0.34375 vs 0.3125 on the 4-node diamond
// 0->1->{2,3}, 2->3 with all probabilities 1/2). It is exact when the
// relevant parent flows are edge-disjoint — in particular on the paper's
// worked triangle and cycle examples and on in-trees. EnumFlowProb is the
// true exact reference used to validate the samplers.
//
// Complexity is exponential; it is intended for validation on small
// graphs and panics if the graph exceeds MaxExactNodes nodes.
func (m *ICM) RecursiveFlowProb(source, sink graph.NodeID) float64 {
	if m.NumNodes() > MaxExactNodes {
		//flowlint:invariant documented size limit: exact recursion is exponential beyond MaxExactNodes
		panic(fmt.Sprintf("core: RecursiveFlowProb on %d nodes exceeds limit %d", m.NumNodes(), MaxExactNodes))
	}
	memo := make(map[exactKey]float64)
	return m.exactFlow(source, sink, 0, memo)
}

type exactKey struct {
	sink    graph.NodeID
	exclude uint64
}

// exactFlow computes Pr[source ~> sink ex. X] for the exclude set encoded
// as a bitmask. The source is fixed across the recursion.
func (m *ICM) exactFlow(source, sink graph.NodeID, exclude uint64, memo map[exactKey]float64) float64 {
	if sink == source {
		return 1 // Pr[v ~> v] = 1 trivially
	}
	if exclude&(1<<uint(sink)) != 0 {
		return 0 // sink itself excluded: no flow possible
	}
	key := exactKey{sink, exclude}
	if v, ok := memo[key]; ok {
		return v
	}
	// Product over incident edges (l, sink) with l not excluded of
	// (1 - Pr[source ~> l ex. X+{sink}] * p_{l,sink}).
	prodFail := 1.0
	childExclude := exclude | 1<<uint(sink)
	for _, id := range m.G.InEdges(sink) {
		l := m.G.Edge(id).From
		if exclude&(1<<uint(l)) != 0 {
			continue
		}
		pFlowToL := m.exactFlow(source, l, childExclude, memo)
		prodFail *= 1 - pFlowToL*m.P[id]
	}
	v := 1 - prodFail
	memo[key] = v
	return v
}

// MaxEnumEdges bounds the brute-force enumerator, which visits all 2^m
// pseudo-states.
const MaxEnumEdges = 24

// EnumFlowProb evaluates Pr[sources ~> sink] by exhaustive enumeration of
// pseudo-states (the definition in Equation (5) computed exactly). It is
// the ground truth against which both the recursion and the samplers are
// validated. Panics if the graph has more than MaxEnumEdges edges.
func (m *ICM) EnumFlowProb(sources []graph.NodeID, sink graph.NodeID) float64 {
	total, _ := m.enumerate(sources, sink, nil)
	return total
}

// EnumConditionalFlowProb evaluates Pr[sources ~> sink | C] exactly by
// enumeration, where C is a set of flow conditions (each enforcing the
// presence or absence of an end-to-end flow). It returns an error when
// the conditions have probability zero.
func (m *ICM) EnumConditionalFlowProb(sources []graph.NodeID, sink graph.NodeID, conds []FlowCondition) (float64, error) {
	joint, condMass := m.enumerate(sources, sink, conds)
	//flowlint:ignore floatcmp -- condMass is exactly zero only when no enumerated state satisfied the conditions
	if condMass == 0 {
		return 0, fmt.Errorf("core: conditions have zero probability")
	}
	return joint / condMass, nil
}

// enumerate walks all pseudo-states, accumulating the probability mass of
// states satisfying the conditions and, of those, the mass that also
// carries the queried flow. With no conditions condMass is 1.
func (m *ICM) enumerate(sources []graph.NodeID, sink graph.NodeID, conds []FlowCondition) (flowMass, condMass float64) {
	me := m.NumEdges()
	if me > MaxEnumEdges {
		//flowlint:invariant documented size limit: enumeration is exponential beyond MaxEnumEdges
		panic(fmt.Sprintf("core: EnumFlowProb on %d edges exceeds limit %d", me, MaxEnumEdges))
	}
	x := NewPseudoState(me)
	var rec func(i int, logp float64)
	rec = func(i int, logp float64) {
		if math.IsInf(logp, -1) {
			return // zero-probability branch
		}
		if i == me {
			if !m.satisfies(x, conds) {
				return
			}
			p := math.Exp(logp)
			condMass += p
			if m.G.Reachable(sources, edgeActive(x))[sink] {
				flowMass += p
			}
			return
		}
		x.Set(i)
		rec(i+1, logp+logOf(m.P[i]))
		x.Clear(i)
		rec(i+1, logp+log1pOf(-m.P[i]))
	}
	rec(0, 0)
	if conds == nil {
		condMass = 1
	}
	return flowMass, condMass
}

// FlowCondition constrains an end-to-end flow: Require=true enforces
// Source ~> Sink, Require=false enforces its absence. A set of
// FlowConditions is the paper's C in P(V x V x B).
type FlowCondition struct {
	Source, Sink graph.NodeID
	Require      bool
}

// satisfies reports the combined indicator I(x, C) of §III-D. Conditions
// sharing a source (the common case: several known flows from one focus
// user) are checked with a single reachability sweep.
func (m *ICM) satisfies(x PseudoState, conds []FlowCondition) bool {
	switch len(conds) {
	case 0:
		return true
	case 1:
		return m.HasFlow(conds[0].Source, conds[0].Sink, x) == conds[0].Require
	}
	active := edgeActive(x)
	checked := make(map[graph.NodeID][]bool, 2)
	for _, c := range conds {
		reach, ok := checked[c.Source]
		if !ok {
			reach = m.G.Reachable([]graph.NodeID{c.Source}, active)
			checked[c.Source] = reach
		}
		if reach[c.Sink] != c.Require {
			return false
		}
	}
	return true
}

// Satisfies reports whether pseudo-state x meets every condition in
// conds; it is exported for the samplers.
func (m *ICM) Satisfies(x PseudoState, conds []FlowCondition) bool {
	return m.satisfies(x, conds)
}
