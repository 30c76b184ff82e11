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
	MH                 mh.Options
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

// syntheticCase is one case of the §IV-C bucket experiment that Figures
// 1 and 5 share: a synthetic betaICM, seen by the estimators as its
// expected ICM m, a source u and a distinct sink v, and whether u reached
// v in an outcome of a point ICM drawn from the betaICM.
type syntheticCase struct {
	m    *core.ICM
	u, v graph.NodeID
	flow bool
}

// drawSyntheticCase draws one case on the given graph size with beta
// parameters a ~ U(aLo, aHi), b ~ U(bLo, bHi), in the order betaICM,
// point ICM, u, v, outcome.
func drawSyntheticCase(r *rng.RNG, nodes, edges int, aLo, aHi, bLo, bHi float64) syntheticCase {
	bm := core.GenerateBetaICM(r, nodes, edges, aLo, aHi, bLo, bHi)
	sampled := bm.SampleICM(r)
	u := graph.NodeID(r.Intn(nodes))
	v := graph.NodeID(r.Intn(nodes))
	for v == u {
		v = graph.NodeID(r.Intn(nodes))
	}
	state := sampled.SamplePseudoState(r)
	return syntheticCase{m: bm.ExpectedICM(), u: u, v: v, flow: sampled.HasFlow(u, v, state)}
}

// Fig1 runs the experiment: for each synthetic betaICM, draw a case (see
// drawSyntheticCase), estimate its flow by MH on the betaICM's expected
// ICM, and bucket the (estimate, outcome) pairs.
func Fig1(cfg Fig1Config) (*Fig1Result, error) {
	r := rng.New(cfg.Seed)
	var exp bucket.Experiment
	for i := 0; i < cfg.Models; i++ {
		c := drawSyntheticCase(r, cfg.Nodes, cfg.Edges, cfg.ALo, cfg.AHi, cfg.BLo, cfg.BHi)
		p, err := mh.FlowProb(c.m, c.u, c.v, nil, cfg.MH, r)
		if err != nil {
			return nil, fmt.Errorf("fig1 model %d: %w", i, err)
		}
		exp.MustAdd(p, c.flow)
	}
	rep, err := exp.Report(cfg.Bins)
	if err != nil {
		return nil, err
	}
	return &Fig1Result{Report: rep}, nil
}
