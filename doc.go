// Package infoflow learns and queries stochastic models of information
// flow in networks, implementing the system described in "Learning
// Stochastic Models of Information Flow" (Dickens, Molloy, Lobo, Cheng,
// Russo; ICDE 2012).
//
// # The model
//
// Information flow is modelled as an Independent Cascade Model (ICM): a
// directed graph where nodes hold information objects and each edge
// carries an activation probability — the chance that an object at the
// edge's source traverses it. A betaICM replaces each point probability
// with a beta distribution, capturing what the evidence does and does
// not pin down.
//
// # Learning
//
// Two kinds of evidence are supported. Attributed evidence records which
// edge carried each flow (e.g. retweet chains recovered from message
// syntax) and trains a betaICM by per-edge beta counting
// (TrainAttributed). Unattributed evidence records only who held an
// object and when; per-sink evidence summaries feed a joint Bayesian
// posterior over the incident edges, sampled by MCMC (JointBayes), with
// Goyal-style credit, Saito-style EM and a filtered estimator provided
// as baselines.
//
// # Querying
//
// Exact flow probabilities are exponential to evaluate, so queries run
// on a Metropolis-Hastings sampler over edge pseudo-states: end-to-end
// flow (FlowProb), source-to-community flow (CommunityFlowProbs), joint
// flows (JointFlowProb), flow conditioned on known flows or non-flows,
// impact/dispersion distributions (ImpactDistribution), and — by nested
// sampling over a betaICM — full distributions over any of those
// quantities (NestedFlowProb). Many queries against one model can share
// one chain (FlowProbBatch, CommunityFlowProbsBatch): every thinned
// sample answers each query with the same early-exit traversal its
// single-query estimator runs, so a query's batched estimate is
// bit-identical to its single-query one.
//
// # Quick start
//
//	r := infoflow.NewRNG(1)
//	g := infoflow.NewGraph(3)
//	g.MustAddEdge(0, 1)
//	g.MustAddEdge(1, 2)
//	m := infoflow.MustNewICM(g, []float64{0.8, 0.5})
//	p, _ := infoflow.FlowProb(m, 0, 2, nil, infoflow.DefaultMHOptions(m.NumEdges()), r)
//	// p ~ 0.4
//
// The internal/experiments package (driven by cmd/flowbench) reproduces
// every table and figure of the paper's evaluation; see DESIGN.md and
// EXPERIMENTS.md.
package infoflow
