package testkit

import (
	"fmt"
	"math"

	"infoflow/internal/core"
	"infoflow/internal/dist"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// CheckMonotonicity verifies the basic comparative static of the flow
// model: raising any single edge's activation probability by delta must
// not decrease the exact flow probability (a coupling argument — every
// pseudo-state carrying the flow remains at least as likely). Violations
// indicate a broken evaluator, not sampling noise, so the check is exact
// up to enumeration round-off.
func CheckMonotonicity(m *core.ICM, source, sink graph.NodeID, delta float64) error {
	if delta <= 0 {
		return fmt.Errorf("testkit: non-positive delta %v", delta)
	}
	base := m.EnumFlowProb([]graph.NodeID{source}, sink)
	for id := 0; id < m.NumEdges(); id++ {
		bumped := m.P[id] + delta
		if bumped > 1 {
			bumped = 1
		}
		p := append([]float64(nil), m.P...)
		p[graph.EdgeID(id)] = bumped
		raised := core.MustNewICM(m.G, p)
		got := raised.EnumFlowProb([]graph.NodeID{source}, sink)
		if got < base-1e-12 {
			e := m.G.Edge(graph.EdgeID(id))
			return fmt.Errorf("testkit: raising edge %d->%d from %.4f to %.4f dropped Pr[%d~>%d] from %.12f to %.12f",
				e.From, e.To, m.P[id], bumped, source, sink, base, got)
		}
	}
	return nil
}

// CheckConditioningConsistency verifies the law of total probability
// linking the conditioned semantics of Eqs. 6–8 to the marginal of
// Eq. 5: P(A) = P(A|C)·P(C) + P(A|¬C)·(1−P(C)), with every term computed
// by exhaustive enumeration. A is the flow source ~> sink and C the given
// flow condition.
func CheckConditioningConsistency(m *core.ICM, source, sink graph.NodeID, c core.FlowCondition) error {
	q := m.EnumFlowProb([]graph.NodeID{c.Source}, c.Sink)
	pC := q
	if !c.Require {
		pC = 1 - q
	}
	pA := m.EnumFlowProb([]graph.NodeID{source}, sink)
	total := 0.0
	if pC > 0 {
		pAC, err := m.EnumConditionalFlowProb([]graph.NodeID{source}, sink, []core.FlowCondition{c})
		if err != nil {
			return fmt.Errorf("testkit: conditioning on C: %w", err)
		}
		total += pAC * pC
	}
	if pC < 1 {
		notC := c
		notC.Require = !c.Require
		pAnC, err := m.EnumConditionalFlowProb([]graph.NodeID{source}, sink, []core.FlowCondition{notC})
		if err != nil {
			return fmt.Errorf("testkit: conditioning on not-C: %w", err)
		}
		total += pAnC * (1 - pC)
	}
	if math.Abs(total-pA) > 1e-9 {
		return fmt.Errorf("testkit: total probability violated for %d~>%d given %+v: decomposed %.12f vs marginal %.12f",
			source, sink, c, total, pA)
	}
	return nil
}

// CheckRecursionUpperBound verifies the FKG relationship documented on
// core.RecursiveFlowProb: Eq. 2's recursion treats parent flows as
// independent where they are positively associated, so it may
// overestimate but must never undershoot the enumeration truth.
func CheckRecursionUpperBound(m *core.ICM, source graph.NodeID) error {
	for v := 0; v < m.NumNodes(); v++ {
		sink := graph.NodeID(v)
		if sink == source {
			continue
		}
		rec := m.RecursiveFlowProb(source, sink)
		enum := m.EnumFlowProb([]graph.NodeID{source}, sink)
		if rec < enum-1e-9 {
			return fmt.Errorf("testkit: recursion undershoots enumeration for %d~>%d: %.12f < %.12f",
				source, sink, rec, enum)
		}
	}
	return nil
}

// maxSizePMFEdges bounds CascadeSizePMF's 2^m enumeration.
const maxSizePMFEdges = 20

// CascadeSizePMF returns the exact distribution of the number of active
// nodes when information flows from sources, by exhaustive pseudo-state
// enumeration under the live-edge law: entry k is P(|active| = k). This
// is the closed-form cascade-size target in the spirit of Burkholz &
// Quackenbush's distributional analyses, specialised to exact small-graph
// enumeration.
func CascadeSizePMF(m *core.ICM, sources []graph.NodeID) []float64 {
	me := m.NumEdges()
	if me > maxSizePMFEdges {
		//flowlint:invariant documented size limit: PMF enumeration is exponential beyond maxSizePMFEdges
		panic(fmt.Sprintf("testkit: CascadeSizePMF on %d edges exceeds limit %d", me, maxSizePMFEdges))
	}
	pmf := make([]float64, m.NumNodes()+1)
	x := core.NewPseudoState(me)
	var rec func(i int, logp float64)
	rec = func(i int, logp float64) {
		if math.IsInf(logp, -1) {
			return
		}
		if i == me {
			n := 0
			for _, a := range m.ActiveNodes(sources, x) {
				if a {
					n++
				}
			}
			pmf[n] += math.Exp(logp)
			return
		}
		x.Set(i)
		rec(i+1, logp+math.Log(m.P[i]))
		x.Clear(i)
		rec(i+1, logp+math.Log1p(-m.P[i]))
	}
	rec(0, 0)
	return pmf
}

// CheckCascadeSizes draws cascades from m's round-based sampler and
// tests the empirical size counts against the exact live-edge PMF, one
// two-sided binomial test per size at level alpha/(#sizes) (Bonferroni).
// Passing ties SampleCascade's dynamics to the pseudo-state law the
// samplers estimate under — the equivalence every estimator relies on.
func CheckCascadeSizes(m *core.ICM, sources []graph.NodeID, samples int, alpha float64, r *rng.RNG) error {
	if samples <= 0 || alpha <= 0 || alpha >= 1 {
		return fmt.Errorf("testkit: invalid samples=%d alpha=%v", samples, alpha)
	}
	pmf := CascadeSizePMF(m, sources)
	counts := make([]int, len(pmf))
	for i := 0; i < samples; i++ {
		counts[m.SampleCascade(r, sources).NumActive()]++
	}
	return CheckSizeCounts(pmf, counts, samples, alpha)
}

// CheckSizeCounts is CheckCascadeSizes' decision rule on pre-drawn
// counts: counts[k] cascades of size k out of samples draws, tested
// against pmf with per-size two-sided binomial tests at level
// alpha/len(pmf). Exposed so power self-tests can feed it counts drawn
// from a deliberately wrong model.
func CheckSizeCounts(pmf []float64, counts []int, samples int, alpha float64) error {
	if len(counts) != len(pmf) {
		return fmt.Errorf("testkit: %d counts for %d sizes", len(counts), len(pmf))
	}
	bonf := alpha / float64(len(pmf))
	for k, p := range pmf {
		pv := dist.NewBinomial(samples, p).TwoSidedPValue(counts[k])
		if pv < bonf {
			return fmt.Errorf("testkit: cascade size %d: observed %d/%d samples vs exact P=%.6f (p-value %.3g < %.3g)",
				k, counts[k], samples, p, pv, bonf)
		}
	}
	return nil
}
