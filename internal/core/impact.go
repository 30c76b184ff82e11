package core

import (
	"fmt"
	"math"

	"infoflow/internal/graph"
)

// EnumLimitError reports that an exact enumerator was asked to visit
// more edge subsets than the MaxEnumEdges budget allows. Callers that
// fall back to sampled or analytic estimators (testkit, flowquery)
// detect it with errors.As and skip-and-report instead of recovering a
// panic.
type EnumLimitError struct {
	Op    string // the enumerator that refused, e.g. "EnumImpactDistribution"
	Edges int    // edge count of the offending model
	Limit int    // the MaxEnumEdges budget in force
}

func (e *EnumLimitError) Error() string {
	return fmt.Sprintf("core: %s on %d edges exceeds limit %d", e.Op, e.Edges, e.Limit)
}

// DedupSources returns the distinct sources in first-appearance order
// alongside an isSource membership slice indexed by node. It is the
// single indexing convention shared by the exact enumerator, the MH
// impact sampler, and the analytic sizedist engine, so their impact
// vectors (length NumNodes - len(distinct) + 1) line up element for
// element.
func DedupSources(n int, sources []graph.NodeID) ([]graph.NodeID, []bool) {
	isSource := make([]bool, n)
	distinct := make([]graph.NodeID, 0, len(sources))
	for _, s := range sources {
		if !isSource[s] {
			isSource[s] = true
			distinct = append(distinct, s)
		}
	}
	return distinct, isSource
}

// EnumImpactDistribution computes the exact distribution over impact —
// the number of non-source nodes activated — by enumerating
// pseudo-states. The result is indexed by impact count (length
// n - |distinct sources| + 1) and sums to 1. It is the ground truth the
// sampled ImpactDistribution estimators are validated against. Beyond
// MaxEnumEdges edges it returns an *EnumLimitError instead of
// enumerating 2^m subsets.
func (m *ICM) EnumImpactDistribution(sources []graph.NodeID) ([]float64, error) {
	me := m.NumEdges()
	if me > MaxEnumEdges {
		return nil, &EnumLimitError{Op: "EnumImpactDistribution", Edges: me, Limit: MaxEnumEdges}
	}
	distinct, _ := DedupSources(m.NumNodes(), sources)
	nSources := len(distinct)
	out := make([]float64, m.NumNodes()-nSources+1)
	x := NewPseudoState(me)
	var rec func(i int, logp float64)
	rec = func(i int, logp float64) {
		if math.IsInf(logp, -1) {
			return
		}
		if i == me {
			active := m.G.Reachable(distinct, edgeActive(x))
			count := 0
			for _, a := range active {
				if a {
					count++
				}
			}
			out[count-nSources] += math.Exp(logp)
			return
		}
		x.Set(i)
		rec(i+1, logp+logOf(m.P[i]))
		x.Clear(i)
		rec(i+1, logp+log1pOf(-m.P[i]))
	}
	rec(0, 0)
	return out, nil
}
