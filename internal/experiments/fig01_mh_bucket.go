// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver takes a config struct (with a Paper()
// constructor at publication scale and a Small() constructor for quick
// runs and tests), executes the experiment, and returns a result value
// whose String method renders the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"strings"

	"infoflow/internal/bucket"
	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
)

// Fig1Config parameterises the basic bucket experiment of §IV-C (Fig. 1):
// Metropolis-Hastings flow estimates on synthetic betaICMs, calibrated
// against sampled outcomes.
type Fig1Config struct {
	Seed   uint64
	Models int // number of synthetic betaICMs (paper: 2000)
	Nodes  int // per model (paper: 50)
	Edges  int // per model (paper: 200)
	Bins   int // bucket count (paper: 30)
	// Beta parameter ranges; the paper draws a, b ~ U(1, 20).
	ALo, AHi, BLo, BHi float64
	// PairsPerModel is how many random flows are tested per model, all
	// answered by one batched chain. 1 (the default when zero) is the
	// paper's protocol; larger values amortise the chain's burn-in and
	// thinning across every flow of the model.
	PairsPerModel int
	MH            mh.Options
}

// Fig1Paper returns the paper-scale configuration.
func Fig1Paper() Fig1Config {
	return Fig1Config{
		Seed: 1, Models: 2000, Nodes: 50, Edges: 200, Bins: 30,
		ALo: 1, AHi: 20, BLo: 1, BHi: 20,
		MH: mh.Options{BurnIn: 2000, Thin: 100, Samples: 600},
	}
}

// Fig1Small returns a fast configuration for tests.
func Fig1Small() Fig1Config {
	c := Fig1Paper()
	c.Models = 120
	c.Nodes = 15
	c.Edges = 40
	c.Bins = 10
	c.MH = mh.Options{BurnIn: 400, Thin: 40, Samples: 300}
	return c
}

// Fig1Result is the calibration analysis plus the Table III measures for
// the "MH Test" row.
type Fig1Result struct {
	bucket.Report
}

// String renders the calibration table and volume plot of Figure 1.
func (r *Fig1Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 1: Metropolis-Hastings bucket experiment (synthetic betaICMs)\n")
	b.WriteString(r.Analysis.String())
	b.WriteString(r.Analysis.VolumePlot())
	b.WriteString(r.Measures())
	return b.String()
}

// Fig1 runs the experiment: for each synthetic betaICM, sample a
// point-probability ICM and an active state from it, test random
// source/sink flows, estimate the same flows by batched MH on the
// betaICM's expected ICM, and bucket the (estimate, outcome) pairs. All
// flows of one model share a single chain via FlowProbBatch; with
// PairsPerModel = 1 the run is bit-identical to per-pair FlowProb.
func Fig1(cfg Fig1Config) (*Fig1Result, error) {
	r := rng.New(cfg.Seed)
	perModel := cfg.PairsPerModel
	if perModel <= 0 {
		perModel = 1
	}
	var exp bucket.Experiment
	pairs := make([]mh.FlowPair, perModel)
	outcomes := make([]bool, perModel)
	for i := 0; i < cfg.Models; i++ {
		bm := core.GenerateBetaICM(r, cfg.Nodes, cfg.Edges, cfg.ALo, cfg.AHi, cfg.BLo, cfg.BHi)
		sampled := bm.SampleICM(r)
		for k := range pairs {
			u := graph.NodeID(r.Intn(cfg.Nodes))
			v := graph.NodeID(r.Intn(cfg.Nodes))
			for v == u {
				v = graph.NodeID(r.Intn(cfg.Nodes))
			}
			pairs[k] = mh.FlowPair{Source: u, Sink: v}
		}
		state := sampled.SamplePseudoState(r)
		for k, pair := range pairs {
			outcomes[k] = sampled.HasFlow(pair.Source, pair.Sink, state)
		}
		ps, err := mh.FlowProbBatch(bm.ExpectedICM(), pairs, nil, cfg.MH, r)
		if err != nil {
			return nil, fmt.Errorf("fig1 model %d: %w", i, err)
		}
		for k, p := range ps {
			exp.MustAdd(p, outcomes[k])
		}
	}
	rep, err := exp.Report(cfg.Bins)
	if err != nil {
		return nil, err
	}
	return &Fig1Result{Report: rep}, nil
}
