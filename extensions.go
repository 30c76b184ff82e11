package infoflow

import (
	"infoflow/internal/core"
	"infoflow/internal/ctic"
	"infoflow/internal/delay"
	"infoflow/internal/dist"
	"infoflow/internal/graph"
	"infoflow/internal/influence"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
	"infoflow/internal/twitter"
)

// This file exposes the extensions beyond the paper's §II-V core: the
// §VI edge-latency model, MCMC convergence diagnostics, and the
// footnote-2 marginal-Bayes conditional estimator.

// Edge latency (§VI).
type (
	// DelayICM pairs an ICM with a delay distribution per edge; queries
	// return arrival-time distributions instead of bare flow booleans.
	DelayICM = delay.DelayICM
	// DelayDist is a non-negative delay distribution on one edge.
	DelayDist = delay.Dist
	// ConstantDelay, ExponentialDelay, GammaDelay and UniformDelay are
	// the provided delay families.
	ConstantDelay    = delay.Constant
	ExponentialDelay = delay.Exponential
	GammaDelay       = delay.Gamma
	UniformDelay     = delay.Uniform
	// ArrivalStats summarises arrival-time samples.
	ArrivalStats = delay.ArrivalStats
)

// NewDelayICM validates and wraps an ICM with per-edge delays.
func NewDelayICM(m *ICM, delays []DelayDist) (*DelayICM, error) {
	return delay.New(m, delays)
}

// WithConstantDelay wraps an ICM with the same constant delay on every
// edge.
func WithConstantDelay(m *ICM, d float64) *DelayICM {
	return delay.WithConstantDelay(m, d)
}

// ArrivalStatsOf summarises arrival samples.
func ArrivalStatsOf(samples []float64) ArrivalStats { return delay.Stats(samples) }

// MCMC diagnostics.
type (
	// FlowDiagnostics reports cross-chain convergence for a flow query.
	FlowDiagnostics = mh.FlowDiagnostics
)

// DiagnoseFlowProb runs several independent chains for the same query
// and reports R-hat, effective sample size, and acceptance rate
// alongside the pooled estimate.
func DiagnoseFlowProb(m *ICM, source, sink NodeID, conds []FlowCondition, opts MHOptions, numChains int, r *RNG) (*FlowDiagnostics, error) {
	return mh.DiagnoseFlowProb(m, source, sink, conds, opts, numChains, r)
}

// EffectiveSampleSize estimates how many independent samples an
// autocorrelated series is worth.
func EffectiveSampleSize(xs []float64) float64 { return mh.EffectiveSampleSize(xs) }

// GelmanRubin returns the potential scale reduction factor across
// chains.
func GelmanRubin(chains [][]float64) (float64, error) { return mh.GelmanRubin(chains) }

// MarginalConditionalFlowProb estimates a conditional flow probability
// from an unconstrained chain via Pr[flow|C] = Pr[flow,C]/Pr[C] — the
// paper's footnote-2 trade-off: cheaper samples, more of them needed for
// rare conditions.
func MarginalConditionalFlowProb(m *ICM, source, sink NodeID, conds []FlowCondition, opts MHOptions, r *RNG) (p float64, satisfied int, err error) {
	return mh.MarginalConditionalFlowProb(m, source, sink, conds, opts, r)
}

// Influence maximization.
type (
	// InfluenceOptions controls greedy seed selection.
	InfluenceOptions = influence.Options
	// InfluenceResult reports a greedy selection.
	InfluenceResult = influence.Result
)

// DefaultInfluenceOptions returns a reasonable simulation budget.
func DefaultInfluenceOptions() InfluenceOptions { return influence.DefaultOptions() }

// GreedySeeds selects k seed nodes maximising expected cascade spread by
// CELF lazy-greedy (a (1-1/e)-approximation by submodularity).
func GreedySeeds(m *ICM, k int, opts InfluenceOptions, r *RNG) (*InfluenceResult, error) {
	return influence.Greedy(m, k, opts, r)
}

// ExpectedSpread estimates the expected number of nodes a seed set
// activates.
func ExpectedSpread(m *ICM, seeds []NodeID, samples int, r *RNG) float64 {
	return influence.Spread(m, seeds, samples, r)
}

// ParallelFlowProbs answers many flow queries concurrently with
// deterministic per-query RNG streams.
func ParallelFlowProbs(m *ICM, queries []FlowPair, conds []FlowCondition, opts MHOptions, workers int, seed uint64) ([]float64, error) {
	return mh.ParallelFlowProbs(m, queries, conds, opts, workers, seed)
}

// ParallelCommunityFlows runs source-to-community queries for several
// sources concurrently.
func ParallelCommunityFlows(m *ICM, sources []NodeID, opts MHOptions, workers int, seed uint64) ([][]float64, error) {
	return mh.ParallelCommunityFlows(m, sources, opts, workers, seed)
}

// FlowProbBatch answers many flow queries from ONE shared chain: every
// pair rides the chain's burn-in and thinning steps, and each thinned
// sample answers every pair with FlowProb's early-exit search. A
// single-pair batch is bit-identical to FlowProb on the same RNG; the
// estimates within a batch share samples and are therefore correlated.
// Contrast ParallelFlowProbs, which buys wall-clock with one
// independent chain (and burn-in) per query across goroutines.
func FlowProbBatch(m *ICM, pairs []FlowPair, conds []FlowCondition, opts MHOptions, r *RNG) ([]float64, error) {
	return mh.FlowProbBatch(m, pairs, conds, opts, r)
}

// CommunityFlowProbsBatch estimates every listed source's
// source-to-community flow probabilities from one shared chain, one
// reachability traversal per source per thinned sample. A single-source
// batch is bit-identical to CommunityFlowProbs on the same RNG.
func CommunityFlowProbsBatch(m *ICM, sources []NodeID, conds []FlowCondition, opts MHOptions, r *RNG) ([][]float64, error) {
	return mh.CommunityFlowProbsBatch(m, sources, conds, opts, r)
}

// ErrInterrupted is the sentinel wrapped by estimator errors when a run
// is stopped early by MHOptions.Interrupt returning true, the one way
// to stop a chain. The chain remains valid and resumable after an
// interrupted run.
var ErrInterrupted = mh.ErrInterrupted

// assertAliases pins the facade types to their internal definitions at
// compile time (a change in either side fails the build here rather
// than at a user's call site).
var _ = func() bool {
	var _ *core.ICM = (*ICM)(nil)
	var _ graph.NodeID = NodeID(0)
	var _ *rng.RNG = (*RNG)(nil)
	return true
}()

// ECE returns the Expected Calibration Error of a calibration
// experiment over nBins equal-width bins.
func ECE(e *CalibrationExperiment, nBins int) (float64, error) { return e.ECE(nBins) }

// KSStatistic returns the two-sample Kolmogorov-Smirnov statistic
// between two sample sets — a scalar distance between sampled
// distributions (e.g. nested-MH flow samples vs an empirical reference).
func KSStatistic(xs, ys []float64) (float64, error) { return dist.KSStatistic(xs, ys) }

// InferTopology reconstructs a flow graph purely from retweet ancestry
// in message text, the way the paper infers its network from
// @-references. It returns the graph and the per-edge observation
// counts.
func InferTopology(tweets []Tweet, numUsers int) (*Graph, []int) {
	inf := twitter.InferGraph(tweets, numUsers)
	return inf.Flow, inf.EdgeObservations
}

// Continuous-time diffusion (the delay-aware model of Saito et al.'s
// follow-up work, reference [14] of the paper).
type (
	// CTICModel is an ICM whose edges carry a transmission probability
	// and an exponential delay rate.
	CTICModel = ctic.Model
	// CTICEpisode is one observed continuous-time diffusion with
	// right-censoring.
	CTICEpisode = ctic.Episode
	// CTICPosterior is the Bayesian learner's output.
	CTICPosterior = ctic.Posterior
	// CTICLearnOptions configures the learner.
	CTICLearnOptions = ctic.LearnOptions
)

// NewCTIC validates and wraps a continuous-time model.
func NewCTIC(g *Graph, k, rates []float64) (*CTICModel, error) { return ctic.New(g, k, rates) }

// LearnCTIC runs the continuous-time Bayesian learner for one sink.
func LearnCTIC(sink NodeID, parents []NodeID, eps []CTICEpisode, opts CTICLearnOptions, r *RNG) (*CTICPosterior, error) {
	return ctic.Learn(sink, parents, eps, opts, r)
}

// DefaultCTICLearnOptions returns settings that mix well on per-sink
// problems.
func DefaultCTICLearnOptions() CTICLearnOptions { return ctic.DefaultLearnOptions() }
