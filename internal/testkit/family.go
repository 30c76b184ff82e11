package testkit

import (
	"fmt"
	"math"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// Family names a seeded random-graph family used to generate conformance
// cases. The three families cover the structures the paper's experiments
// draw on: uniform random graphs (§IV-A), preferential-attachment follow
// graphs (the Twitter-like shape of §IV-C), and DAGs (where Eq. 2's
// recursion is closest to exact).
type Family int

const (
	Uniform Family = iota
	Preferential
	DAG
)

// Families lists every graph family, in generation order.
var Families = []Family{Uniform, Preferential, DAG}

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case Uniform:
		return "uniform"
	case Preferential:
		return "preferential"
	case DAG:
		return "dag"
	}
	return fmt.Sprintf("Family(%d)", int(f))
}

// NewModel draws a small ICM from the family: structure from the seeded
// generator, edge probabilities uniform in [0.15, 0.85] (extreme
// probabilities slow chain mixing and push ground truths against the
// boundary, where conformance bands degenerate). Sizes are chosen so the
// graphs stay within core.MaxEnumEdges and exhaustive enumeration is
// cheap.
func NewModel(f Family, r *rng.RNG) *core.ICM {
	var g *graph.DiGraph
	switch f {
	case Uniform:
		g = graph.Random(r, 7, 14)
	case Preferential:
		// n=7, 2 edges per arriving node: at most 11 base edges plus 11
		// reciprocal ones, safely under core.MaxEnumEdges.
		g = graph.PreferentialAttachment(r, 7, 2, 0.25)
	case DAG:
		g = graph.RandomDAG(r, 8, 14)
	default:
		//flowlint:invariant unreachable: every Family value is enumerated above
		panic(fmt.Sprintf("testkit: unknown family %d", int(f)))
	}
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = r.Uniform(0.15, 0.85)
	}
	return core.MustNewICM(g, p)
}

// Case is one conformance scenario: a small model, a flow query, optional
// flow conditions, and the enumeration ground truth.
type Case struct {
	Name         string
	Model        *core.ICM
	Source, Sink graph.NodeID
	Conds        []core.FlowCondition
	// Exact is the ground-truth probability by exhaustive pseudo-state
	// enumeration (Eq. 5 computed exactly; conditional when Conds is set).
	Exact float64
	// Recursive is Eq. 2's recursive evaluation of the unconditioned
	// query. It is exact when the sink's parent flows are edge-disjoint
	// and an upper bound otherwise (see core.RecursiveFlowProb); it is -1
	// for conditioned cases, which the recursion does not cover.
	Recursive float64
}

// Cases generates the standard conformance suite deterministically from
// seed: one unconditioned and one conditioned case per family. Queries
// are selected so the ground truth lies strictly inside (0.05, 0.95) —
// boundary probabilities make binomial bands degenerate and are covered
// by direct unit tests instead.
func Cases(seed uint64) []Case {
	var cases []Case
	for _, f := range Families {
		cases = append(cases, UnconditionedCase(f, seed))
		cases = append(cases, ConditionedCase(f, seed))
	}
	return cases
}

// UnconditionedCases is the marginal-only half of Cases, one case per
// family.
func UnconditionedCases(seed uint64) []Case {
	var cases []Case
	for _, f := range Families {
		cases = append(cases, UnconditionedCase(f, seed))
	}
	return cases
}

// maxModelDraws bounds the deterministic rejection loop over models; the
// acceptance criteria hold for most draws, so hitting the bound means the
// selection constraints themselves are broken.
const maxModelDraws = 64

// UnconditionedCase deterministically builds a marginal flow query on the
// family with ground truth inside (0.05, 0.95).
func UnconditionedCase(f Family, seed uint64) Case {
	r := rng.NewStream(seed, uint64(f))
	for try := 0; try < maxModelDraws; try++ {
		m := NewModel(f, r.Fork())
		source, ok := pickSource(m)
		if !ok {
			continue
		}
		sink, exact, ok := pickSink(m, source, -1)
		if !ok {
			continue
		}
		return Case{
			Name:      fmt.Sprintf("%s/marginal/seed=%d", f, seed),
			Model:     m,
			Source:    source,
			Sink:      sink,
			Exact:     exact,
			Recursive: m.RecursiveFlowProb(source, sink),
		}
	}
	//flowlint:invariant test-harness exhaustion: seeds are chosen so an admissible case exists
	panic(fmt.Sprintf("testkit: no admissible unconditioned case for %s with seed %d", f, seed))
}

// ConditionedCase deterministically builds a conditioned flow query on
// the family: the condition requires a flow from the source to an
// intermediate node with P(C) inside (0.2, 0.95), and the queried
// conditional probability lies inside (0.05, 0.95).
func ConditionedCase(f Family, seed uint64) Case {
	r := rng.NewStream(seed, uint64(f)+uint64(len(Families)))
	for try := 0; try < maxModelDraws; try++ {
		m := NewModel(f, r.Fork())
		source, ok := pickSource(m)
		if !ok {
			continue
		}
		condSink, pc, ok := pickSink(m, source, -1)
		if !ok || pc <= 0.2 || pc >= 0.95 {
			continue
		}
		conds := []core.FlowCondition{{Source: source, Sink: condSink, Require: true}}
		sink, exact, ok := pickConditionalSink(m, source, condSink, conds)
		if !ok {
			continue
		}
		return Case{
			Name:      fmt.Sprintf("%s/conditioned/seed=%d", f, seed),
			Model:     m,
			Source:    source,
			Sink:      sink,
			Conds:     conds,
			Exact:     exact,
			Recursive: -1,
		}
	}
	//flowlint:invariant test-harness exhaustion: seeds are chosen so an admissible case exists
	panic(fmt.Sprintf("testkit: no admissible conditioned case for %s with seed %d", f, seed))
}

// pickSource returns the lowest-ID node that can reach anything at all.
func pickSource(m *core.ICM) (graph.NodeID, bool) {
	for v := 0; v < m.NumNodes(); v++ {
		if m.G.OutDegree(graph.NodeID(v)) > 0 {
			return graph.NodeID(v), true
		}
	}
	return 0, false
}

// pickSink scans all sinks (except the source and skip) and returns the
// one whose exact flow probability is admissible and closest to 1/2 —
// the point of maximum discrimination power for a binomial band.
func pickSink(m *core.ICM, source, skip graph.NodeID) (graph.NodeID, float64, bool) {
	best := graph.NodeID(-1)
	bestP := 0.0
	for v := 0; v < m.NumNodes(); v++ {
		sink := graph.NodeID(v)
		if sink == source || sink == skip {
			continue
		}
		p := m.EnumFlowProb([]graph.NodeID{source}, sink)
		if p <= 0.05 || p >= 0.95 {
			continue
		}
		if best < 0 || math.Abs(p-0.5) < math.Abs(bestP-0.5) {
			best, bestP = sink, p
		}
	}
	return best, bestP, best >= 0
}

// pickConditionalSink is pickSink under flow conditions.
func pickConditionalSink(m *core.ICM, source, skip graph.NodeID, conds []core.FlowCondition) (graph.NodeID, float64, bool) {
	best := graph.NodeID(-1)
	bestP := 0.0
	for v := 0; v < m.NumNodes(); v++ {
		sink := graph.NodeID(v)
		if sink == source || sink == skip {
			continue
		}
		p, err := m.EnumConditionalFlowProb([]graph.NodeID{source}, sink, conds)
		if err != nil || p <= 0.05 || p >= 0.95 {
			continue
		}
		if best < 0 || math.Abs(p-0.5) < math.Abs(bestP-0.5) {
			best, bestP = sink, p
		}
	}
	return best, bestP, best >= 0
}
