package infoflow

import (
	"infoflow/internal/bucket"
	"infoflow/internal/core"
	"infoflow/internal/dist"
	"infoflow/internal/graph"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
	"infoflow/internal/rwr"
	"infoflow/internal/sizedist"
	"infoflow/internal/twitter"
	"infoflow/internal/unattrib"
)

// Randomness.
type (
	// RNG is the deterministic random number generator every stochastic
	// operation takes explicitly; seed it once per experiment for
	// reproducible results, or Fork it for independent streams.
	RNG = rng.RNG
)

// NewRNG returns a generator seeded from seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// Graphs.
type (
	// Graph is a simple directed graph; nodes are information
	// repositories, edges are routes information may take.
	Graph = graph.DiGraph
	// NodeID identifies a node (dense in [0, NumNodes)).
	NodeID = graph.NodeID
	// EdgeID identifies an edge (dense in [0, NumEdges), insertion
	// order); per-edge data throughout the library is indexed by it.
	EdgeID = graph.EdgeID
	// Edge is a directed edge.
	Edge = graph.Edge
)

// NewGraph returns a graph with n isolated nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// Scratch is reusable traversal state for the allocation-free packed
// reachability kernels (Graph.ReachableBitsInto, Graph.HasPathBits,
// ICM.ActiveNodesInto, ICM.HasFlowScratch, ICM.SatisfiesScratch, and
// Sampler.Scratch). One Scratch per goroutine; see DESIGN.md §6.
type Scratch = graph.Scratch

// NewScratch returns traversal scratch sized for graphs of up to n
// nodes; it grows transparently if used with a larger graph.
func NewScratch(n int) *Scratch { return graph.NewScratch(n) }

// RandomGraph returns a graph with n nodes and m uniformly random edges.
func RandomGraph(r *RNG, n, m int) *Graph { return graph.Random(r, n, m) }

// PreferentialAttachment generates a heavy-tailed follow-graph-like
// structure with the given reciprocity.
func PreferentialAttachment(r *RNG, n, edgesPerNode int, reciprocity float64) *Graph {
	return graph.PreferentialAttachment(r, n, edgesPerNode, reciprocity)
}

// Models.
type (
	// ICM is a point-probability Independent Cascade Model.
	ICM = core.ICM
	// BetaICM carries a beta distribution per edge: a distribution over
	// ICMs representing uncertainty in the learned model.
	BetaICM = core.BetaICM
	// PseudoState assigns every edge active/inactive irrespective of its
	// parent's activity; the Metropolis-Hastings chain walks these.
	PseudoState = core.PseudoState
	// Cascade is one realised spread of an object, with attribution.
	Cascade = core.Cascade
	// AttributedObject is one fully attributed observed flow.
	AttributedObject = core.AttributedObject
	// AttributedEvidence is a training set of attributed objects.
	AttributedEvidence = core.AttributedEvidence
	// FlowCondition constrains a query: a flow known present or absent.
	FlowCondition = core.FlowCondition
	// Beta is a beta distribution (the per-edge uncertainty model).
	Beta = dist.Beta
)

// NewICM validates and wraps a graph with per-edge activation
// probabilities.
func NewICM(g *Graph, p []float64) (*ICM, error) { return core.NewICM(g, p) }

// MustNewICM is NewICM that panics on error.
func MustNewICM(g *Graph, p []float64) *ICM { return core.MustNewICM(g, p) }

// NewBetaICM returns a betaICM over g at the uniform prior, ready for
// training.
func NewBetaICM(g *Graph) *BetaICM { return core.NewBetaICM(g) }

// NewBeta returns a beta distribution.
func NewBeta(alpha, beta float64) Beta { return dist.NewBeta(alpha, beta) }

// GenerateBetaICM builds a random synthetic betaICM (the paper's §IV-A
// generator) with beta parameters drawn uniformly from the given ranges.
func GenerateBetaICM(r *RNG, n, m int, aLo, aHi, bLo, bHi float64) *BetaICM {
	return core.GenerateBetaICM(r, n, m, aLo, aHi, bLo, bHi)
}

// FromCascade converts a simulated cascade into attributed evidence.
func FromCascade(c *Cascade) AttributedObject { return core.FromCascade(c) }

// Metropolis-Hastings queries.
type (
	// MHOptions controls burn-in, thinning and sample counts.
	MHOptions = mh.Options
	// FlowPair names one end-to-end flow for joint queries.
	FlowPair = mh.FlowPair
	// Sampler is the underlying pseudo-state chain, exposed for advanced
	// use (custom estimators, diagnostics).
	Sampler = mh.Sampler
)

// DefaultMHOptions returns chain settings adequate for a graph with the
// given edge count.
func DefaultMHOptions(numEdges int) MHOptions { return mh.DefaultOptions(numEdges) }

// NewSampler builds a Metropolis-Hastings chain for m under conds (nil
// for marginal sampling).
func NewSampler(m *ICM, conds []FlowCondition, r *RNG) (*Sampler, error) {
	return mh.NewSampler(m, conds, r)
}

// FlowProb estimates Pr[source ~> sink | conds] by MH sampling.
func FlowProb(m *ICM, source, sink NodeID, conds []FlowCondition, opts MHOptions, r *RNG) (float64, error) {
	return mh.FlowProb(m, source, sink, conds, opts, r)
}

// FlowProbChains estimates one flow probability by splitting the sample
// budget across `chains` concurrent Metropolis-Hastings chains with
// deterministically forked RNGs and merged hit counts — parallel speedup
// for a single large query (ParallelFlowProbs is the per-query
// throughput shape). Results are bit-identical for a fixed seed
// regardless of GOMAXPROCS.
func FlowProbChains(m *ICM, source, sink NodeID, conds []FlowCondition, opts MHOptions, chains int, seed uint64) (float64, error) {
	return mh.FlowProbChains(m, source, sink, conds, opts, chains, seed)
}

// CommunityFlowProbs estimates Pr[source ~> v | conds] for every node v
// in one chain.
func CommunityFlowProbs(m *ICM, source NodeID, conds []FlowCondition, opts MHOptions, r *RNG) ([]float64, error) {
	return mh.CommunityFlowProbs(m, source, conds, opts, r)
}

// JointFlowProb estimates the probability that every listed flow is
// present simultaneously.
func JointFlowProb(m *ICM, flows []FlowPair, conds []FlowCondition, opts MHOptions, r *RNG) (float64, error) {
	return mh.JointFlowProb(m, flows, conds, opts, r)
}

// ImpactDistribution samples the number of non-source nodes reached —
// the dispersion/impact statistic.
func ImpactDistribution(m *ICM, sources []NodeID, conds []FlowCondition, opts MHOptions, r *RNG) ([]int, error) {
	return mh.ImpactDistribution(m, sources, conds, opts, r)
}

// Analytic cascade-size distribution (the second estimator family; see
// DESIGN.md §12).
type (
	// SizeDistOptions budgets the analytic cascade-size engine: frontier
	// width, loop-conditioning edge budget, Monte-Carlo fallback samples.
	SizeDistOptions = sizedist.Options
	// SizeDistResult is the computed size law with its method label and
	// exactness flag; inexact results carry condensation sandwich bounds.
	SizeDistResult = sizedist.Result
)

// ErrSizeDistIntractable is returned by SizeDistribution when no
// analytic path fits the configured budgets and the Monte-Carlo
// fallback is disabled.
var ErrSizeDistIntractable = sizedist.ErrIntractable

// DefaultSizeDistOptions returns budgets adequate for tree-like and
// moderately wide DAG models.
func DefaultSizeDistOptions() SizeDistOptions { return sizedist.DefaultOptions() }

// SizeDistribution computes the exact distribution of the number of
// non-source nodes a cascade from sources reaches — the analytic
// counterpart of the sampled ImpactDistribution, exact on forests and
// bounded-width DAGs, with principled loop conditioning on nearly
// acyclic models. Unlike the MH estimator it is unconditional (no
// FlowCondition support) but closed-form: no chain, no variance.
func SizeDistribution(m *ICM, sources []NodeID, opts SizeDistOptions) (*SizeDistResult, error) {
	return sizedist.Compute(m, sources, opts)
}

// NestedFlowProb samples ICMs from the betaICM and estimates the flow on
// each, yielding the model's distribution OVER flow probabilities.
func NestedFlowProb(bm *BetaICM, source, sink NodeID, conds []FlowCondition, nModels int, opts MHOptions, r *RNG) ([]float64, error) {
	return mh.NestedFlowProb(bm, source, sink, conds, nModels, opts, r)
}

// NestedImpact pools impact samples across ICMs drawn from the betaICM.
func NestedImpact(bm *BetaICM, sources []NodeID, nModels int, opts MHOptions, r *RNG) ([]int, error) {
	return mh.NestedImpact(bm, sources, nModels, opts, r)
}

// DirectFlowProb estimates a flow probability by naive independent
// sampling — the expensive baseline MH replaces. An out-of-range node or
// a non-positive sample count is an error.
func DirectFlowProb(m *ICM, source, sink NodeID, samples int, r *RNG) (float64, error) {
	return mh.DirectFlowProb(m, source, sink, samples, r)
}

// Unattributed learning.
type (
	// Trace is one object's unattributed observation: activation time
	// per node.
	Trace = unattrib.Trace
	// Summary is per-sink evidence: characteristics with counts and
	// leaks (a sufficient statistic for the sink's incident edges).
	Summary = unattrib.Summary
	// Posterior is the joint-Bayes result: samples, means, deviations.
	Posterior = unattrib.Posterior
	// BayesOptions configures the joint-Bayes MCMC.
	BayesOptions = unattrib.BayesOptions
	// SaitoOptions configures the EM baselines.
	SaitoOptions = unattrib.SaitoOptions
	// CharBits is a characteristic: a bitset of active incident parents.
	CharBits = unattrib.CharBits
)

// BuildSummaries aggregates traces into per-sink evidence summaries.
func BuildSummaries(g *Graph, traces []Trace) (map[NodeID]*Summary, error) {
	return unattrib.BuildSummaries(g, traces)
}

// DefaultBayesOptions returns MCMC settings adequate for per-sink
// problems.
func DefaultBayesOptions() BayesOptions { return unattrib.DefaultBayesOptions() }

// JointBayes estimates the joint posterior over a sink's incident edge
// probabilities.
func JointBayes(s *Summary, opts BayesOptions, r *RNG) (*Posterior, error) {
	return unattrib.JointBayes(s, opts, r)
}

// JointBayesWithPrior is JointBayes with an informed base prior.
func JointBayesWithPrior(s *Summary, base Beta, opts BayesOptions, r *RNG) (*Posterior, error) {
	return unattrib.JointBayesWithPrior(s, base, opts, r)
}

// Goyal estimates edge probabilities by Goyal et al.'s credit rule.
func Goyal(s *Summary) []float64 { return unattrib.Goyal(s) }

// SaitoRelaxed runs the relaxed (summary-based) Saito EM.
func SaitoRelaxed(s *Summary, init []float64, opts SaitoOptions) ([]float64, int, error) {
	return unattrib.SaitoRelaxed(s, init, opts)
}

// Filtered estimates per-edge betas from unambiguous observations only.
func Filtered(s *Summary) []Beta { return unattrib.Filtered(s) }

// RWRScores computes random-walk-with-restart similarity scores, the
// baseline the paper compares against.
func RWRScores(g *Graph, weights []float64, source NodeID) ([]float64, error) {
	return rwr.Scores(g, weights, source, rwr.DefaultOptions())
}

// Calibration and metrics.
type (
	// CalibrationExperiment accumulates (estimate, outcome) pairs for
	// the bucket analysis.
	CalibrationExperiment = bucket.Experiment
	// CalibrationResult is a bucketed calibration analysis.
	CalibrationResult = bucket.Result
	// AccuracyMetrics holds normalised likelihood and Brier score.
	AccuracyMetrics = bucket.Metrics
)

// Synthetic Twitter corpus.
type (
	// TwitterConfig parameterises the synthetic micro-blogging corpus.
	TwitterConfig = twitter.Config
	// TwitterDataset is a generated corpus plus hidden ground truth.
	TwitterDataset = twitter.Dataset
	// Tweet is one message.
	Tweet = twitter.Tweet
)

// DefaultTwitterConfig returns a laptop-scale corpus configuration.
func DefaultTwitterConfig() TwitterConfig { return twitter.DefaultConfig() }

// GenerateTwitter builds a synthetic corpus.
func GenerateTwitter(cfg TwitterConfig, r *RNG) (*TwitterDataset, error) {
	return twitter.Generate(cfg, r)
}

// ExtractAttributed rebuilds attributed evidence from raw tweets by
// message syntax (retweet-chain recovery).
func ExtractAttributed(g *Graph, tweets []Tweet) *twitter.AttributedResult {
	return twitter.ExtractAttributed(g, tweets)
}

// ExtractHashtagTraces reduces a corpus to per-hashtag activation
// traces.
func ExtractHashtagTraces(tweets []Tweet) map[string]Trace {
	return twitter.ExtractTraces(tweets, twitter.MentionHashtags)
}

// ExtractURLTraces reduces a corpus to per-URL activation traces.
func ExtractURLTraces(tweets []Tweet) map[string]Trace {
	return twitter.ExtractTraces(tweets, twitter.MentionURLs)
}

// TrainAttributedCensored is exposed on BetaICM; this helper documents
// the choice between the two attributed-training rules at the facade
// level. Use the paper-faithful rule (TrainAttributed) when the evidence
// records every fired edge; use the censored rule when evidence comes
// from single-attribution chains like recovered retweet ancestry, where
// an inactive edge into an already-active child is unobservable rather
// than failed.
func TrainAttributed(bm *BetaICM, ev *AttributedEvidence, censored bool) error {
	if censored {
		return bm.TrainAttributedCensored(ev)
	}
	return bm.TrainAttributed(ev)
}

// SaitoOriginal runs Saito et al.'s original discrete-time EM on raw
// traces for the edges into one sink (the baseline the paper's relaxed
// variant modifies). As for SaitoRelaxed, init holds one value per
// parent and each must lie in (0,1); an init of 0 would be a fixed point
// of the update.
func SaitoOriginal(sink NodeID, parents []NodeID, traces []Trace, init []float64, opts SaitoOptions) ([]float64, int, error) {
	return unattrib.SaitoOriginal(sink, parents, traces, init, opts)
}
