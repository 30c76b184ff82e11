// Package sizedist computes cascade-size (impact) distributions
// analytically, following the subtree-convolution / message-passing
// approach of Burkholz & Quackenbush, "Cascade Size Distributions: Why
// They Matter and How to Compute Them Efficiently" (arXiv:1909.05416).
//
// Where the exact enumerator core.EnumImpactDistribution visits all 2^m
// pseudo-states (capped at MaxEnumEdges=24 edges), sizedist exploits
// graph structure:
//
//   - out-forests: exact by per-subtree Bernoulli convolution, O(n²)
//     float work, any size;
//   - DAGs: exact by a frontier dynamic program over the joint
//     activation state of the ≤ MaxWidth "live" nodes (nodes whose
//     activation bit is still needed by an unprocessed successor);
//   - cyclic graphs with few uncertain intra-SCC edges: exact by
//     conditioning on the ≤ MaxLoopEdges loop edges (2^L terms, each a
//     frontier DP on an SCC-clustered DAG);
//   - other cyclic graphs: a condensation sandwich — an upper bound
//     treating every intra-SCC edge as certain and a lower bound
//     dropping every uncertain intra-SCC edge. Both are exact
//     distributions of modified models that stochastically dominate /
//     are dominated by the true law, so the true CDF lies between the
//     two; ExpectedSlack = E[upper] − E[lower] quantifies the gap.
//     With Options.MCSamples > 0 a Monte-Carlo refinement replaces the
//     point estimate while keeping the analytic band.
//
// All float accumulation is FFT-free and runs in fixed (ascending
// index) order, so results are deterministic bit-for-bit across runs.
package sizedist

import (
	"errors"
	"fmt"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// Method identifies which algorithm produced a Result.
type Method int

const (
	// MethodForest is exact subtree convolution on an out-forest.
	MethodForest Method = iota
	// MethodFrontier is the exact frontier DP on a DAG.
	MethodFrontier
	// MethodConditioned is exact loop-edge conditioning on a cyclic
	// graph (2^L frontier DPs).
	MethodConditioned
	// MethodCondensation is the approximate condensation sandwich on a
	// cyclic graph: Dist is the upper bound, Lower the lower bound.
	MethodCondensation
	// MethodMC is Monte-Carlo cascade sampling.
	MethodMC
)

// String returns the label used by flowquery and the /impact endpoint.
func (m Method) String() string {
	switch m {
	case MethodForest:
		return "forest"
	case MethodFrontier:
		return "frontier-dp"
	case MethodConditioned:
		return "loop-conditioning"
	case MethodCondensation:
		return "condensation-bound"
	case MethodMC:
		return "monte-carlo"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ErrIntractable reports that no analytic path applies within the
// configured budgets and Monte-Carlo refinement was disabled
// (Options.MCSamples == 0).
var ErrIntractable = errors.New("sizedist: no analytic path within budgets and MCSamples == 0")

// errWidth is the internal signal that a frontier DP would need more
// live slots than Options.MaxWidth allows.
var errWidth = errors.New("sizedist: frontier width exceeds MaxWidth")

// Options bound the analytic algorithms. The zero value selects the
// defaults below via Compute.
type Options struct {
	// MaxWidth caps the number of live activation bits the frontier DP
	// tracks jointly; state space is 2^MaxWidth masks. Default 16.
	MaxWidth int
	// MaxLoopEdges caps exact loop-edge conditioning on cyclic graphs;
	// cost is 2^L frontier DPs. Default 12.
	MaxLoopEdges int
	// MCSamples enables Monte-Carlo refinement when the analytic paths
	// are infeasible (and replaces the condensation point estimate).
	// 0 disables it, making Compute return ErrIntractable instead.
	MCSamples int
	// Seed seeds the Monte-Carlo sampler. Fixed seed ⇒ bit-identical
	// output, matching the repo-wide determinism contract.
	Seed uint64
}

// DefaultOptions returns the standard analytic budgets with MC
// refinement disabled.
func DefaultOptions() Options {
	return Options{MaxWidth: 16, MaxLoopEdges: 12}
}

func (o Options) withDefaults() Options {
	if o.MaxWidth <= 0 {
		o.MaxWidth = 16
	}
	if o.MaxLoopEdges <= 0 {
		o.MaxLoopEdges = 12
	}
	return o
}

// Result is a computed impact distribution plus provenance.
type Result struct {
	// Dist is indexed by impact (number of non-source activated nodes)
	// and has length NumNodes − |distinct sources| + 1, matching
	// core.EnumImpactDistribution and the MH sampler's indexing.
	Dist []float64
	// Method is the algorithm that produced Dist.
	Method Method
	// Exact reports whether Dist is the exact law of the model.
	Exact bool
	// Lower and Upper hold the condensation sandwich when Method is
	// MethodCondensation (Dist aliases Upper) or when an MC refinement
	// retained the band; nil otherwise.
	Lower, Upper []float64
	// ExpectedSlack is E[Upper] − E[Lower] ≥ 0, the documented error
	// bound of the condensation approximation; 0 for exact methods.
	ExpectedSlack float64
}

// Mean returns the expected impact under Dist.
func (r *Result) Mean() float64 { return meanOf(r.Dist) }

func meanOf(d []float64) float64 {
	m := 0.0
	for k, p := range d {
		m += float64(k) * p
	}
	return m
}

// Compute returns the impact distribution of sources under m, choosing
// the cheapest applicable algorithm (forest → frontier DP →
// loop conditioning → condensation sandwich → Monte Carlo). The vector
// indexing matches core.EnumImpactDistribution: duplicate sources are
// deduped and the length is NumNodes − |distinct| + 1.
func Compute(m *core.ICM, sources []graph.NodeID, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	n := m.NumNodes()
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("sizedist: source %d out of range [0,%d)", s, n)
		}
	}
	distinct, isSource := core.DedupSources(n, sources)
	full := n - len(distinct) + 1
	if len(distinct) == 0 {
		// No sources: nothing ever activates.
		return &Result{Dist: pad([]float64{1}, full), Method: MethodForest, Exact: true}, nil
	}
	// Nodes unreachable along edges of positive probability never
	// activate and are irrelevant to the impact law.
	reach := m.G.Reachable(distinct, func(e graph.EdgeID) bool { return m.P[e] > 0 })

	if d, ok := forestDist(m, distinct, isSource, reach); ok {
		return &Result{Dist: pad(d, full), Method: MethodForest, Exact: true}, nil
	}

	sub := buildSub(m, isSource, reach)
	labels, count := sub.g.StronglyConnectedComponents()
	if count == sub.g.NumNodes() {
		d, err := frontierDP(sub, opts.MaxWidth)
		if err == nil {
			return &Result{Dist: pad(d, full), Method: MethodFrontier, Exact: true}, nil
		}
		return mcFallback(m, distinct, full, opts)
	}

	loops := loopEdges(sub, labels)
	if len(loops) <= opts.MaxLoopEdges {
		d, err := conditionOnLoops(sub, labels, loops, opts.MaxWidth, full)
		if err == nil {
			return &Result{Dist: d, Method: MethodConditioned, Exact: true}, nil
		}
	}

	upper, lower, err := condensationBounds(sub, labels, loops, opts.MaxWidth, full)
	if err != nil {
		return mcFallback(m, distinct, full, opts)
	}
	slack := meanOf(upper) - meanOf(lower)
	res := &Result{Dist: upper, Method: MethodCondensation, Lower: lower, Upper: upper, ExpectedSlack: slack}
	if opts.MCSamples > 0 {
		res.Dist = mcDist(m, distinct, full, opts.MCSamples, opts.Seed)
		res.Method = MethodMC
	}
	return res, nil
}

func mcFallback(m *core.ICM, distinct []graph.NodeID, full int, opts Options) (*Result, error) {
	if opts.MCSamples <= 0 {
		return nil, ErrIntractable
	}
	return &Result{Dist: mcDist(m, distinct, full, opts.MCSamples, opts.Seed), Method: MethodMC}, nil
}

// mcDist estimates the impact distribution by iid cascade sampling.
func mcDist(m *core.ICM, distinct []graph.NodeID, full, samples int, seed uint64) []float64 {
	r := rng.New(seed)
	out := make([]float64, full)
	for i := 0; i < samples; i++ {
		out[m.SampleCascade(r, distinct).NumNewlyActive()]++
	}
	inv := 1 / float64(samples)
	for k := range out {
		out[k] *= inv
	}
	return out
}

// pad extends d with zeros to length full (impacts that cannot occur,
// e.g. unreachable nodes, carry probability zero).
func pad(d []float64, full int) []float64 {
	if len(d) >= full {
		return d[:full]
	}
	out := make([]float64, full)
	copy(out, d)
	return out
}

// wgraph is the weighted activation model the frontier DP runs on:
// node v activates iff forced[v] or some in-edge e from an active node
// fires (independently, probability q[e]); an active node contributes
// weight[v] to the impact. Source in-edges are dropped at construction,
// and parallel edges are pre-merged (q = 1 − Π(1−qᵢ)).
type wgraph struct {
	g      *graph.DiGraph
	q      []float64 // by sub EdgeID
	weight []int     // by sub node
	forced []bool    // by sub node
}

// buildSub restricts m to the positive-reachable subgraph, dropping
// in-edges of sources (forced nodes) and zero-probability edges.
func buildSub(m *core.ICM, isSource, reach []bool) *wgraph {
	keep := make([]graph.NodeID, 0)
	for v := 0; v < m.NumNodes(); v++ {
		if reach[v] {
			keep = append(keep, graph.NodeID(v))
		}
	}
	sub := &wgraph{
		g:      graph.New(len(keep)),
		weight: make([]int, len(keep)),
		forced: make([]bool, len(keep)),
	}
	toNew := make([]graph.NodeID, m.NumNodes())
	for i := range toNew {
		toNew[i] = -1
	}
	for newID, oldID := range keep {
		toNew[oldID] = graph.NodeID(newID)
		if isSource[oldID] {
			sub.forced[newID] = true
		} else {
			sub.weight[newID] = 1
		}
	}
	for e := 0; e < m.NumEdges(); e++ {
		if m.P[e] <= 0 {
			continue
		}
		edge := m.G.Edge(graph.EdgeID(e))
		u, v := toNew[edge.From], toNew[edge.To]
		if u < 0 || v < 0 || isSource[edge.To] {
			continue
		}
		sub.g.MustAddEdge(u, v)
		sub.q = append(sub.q, m.P[e])
	}
	return sub
}

// totalWeight returns the maximum possible impact of the model.
func (w *wgraph) totalWeight() int {
	t := 0
	for _, wt := range w.weight {
		t += wt
	}
	return t
}
