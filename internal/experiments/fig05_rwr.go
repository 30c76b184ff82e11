package experiments

import (
	"fmt"
	"strings"

	"infoflow/internal/bucket"
	"infoflow/internal/rng"
	"infoflow/internal/rwr"
)

// Fig5Config parameterises the RWR baseline bucket experiment (§IV-E,
// Fig. 5): identical setup to Figure 1, but the "probability" estimate is
// a random-walk-with-restart similarity score.
type Fig5Config struct {
	Seed               uint64
	Models             int
	Nodes              int
	Edges              int
	Bins               int
	ALo, AHi, BLo, BHi float64
	RWR                rwr.Options
}

// Fig5Paper returns the paper-scale configuration.
func Fig5Paper() Fig5Config {
	return Fig5Config{
		Seed: 5, Models: 2000, Nodes: 50, Edges: 200, Bins: 30,
		ALo: 1, AHi: 20, BLo: 1, BHi: 20,
		RWR: rwr.DefaultOptions(),
	}
}

// Fig5Small returns a fast configuration for tests.
func Fig5Small() Fig5Config {
	c := Fig5Paper()
	c.Models = 250
	c.Nodes = 15
	c.Edges = 40
	c.Bins = 10
	return c
}

// Fig5Result is the RWR calibration analysis plus Table III measures for
// the "RWR" row.
type Fig5Result struct {
	bucket.Report
}

// String renders the Figure 5 analysis.
func (r *Fig5Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 5: random walk with restart bucket experiment\n")
	b.WriteString(r.Report.String())
	return b.String()
}

// Fig5 runs the experiment. RWR scores lie in [0,1] by construction
// (they are components of a distribution), so they can be bucketed
// directly; the point of the figure is that they are badly calibrated as
// probabilities.
func Fig5(cfg Fig5Config) (*Fig5Result, error) {
	r := rng.New(cfg.Seed)
	var exp bucket.Experiment
	for i := 0; i < cfg.Models; i++ {
		c := drawSyntheticCase(r, cfg.Nodes, cfg.Edges, cfg.ALo, cfg.AHi, cfg.BLo, cfg.BHi)
		score, err := rwr.Score(c.m.G, c.m.P, c.u, c.v, cfg.RWR)
		if err != nil {
			return nil, fmt.Errorf("fig5 model %d: %w", i, err)
		}
		exp.MustAdd(score, c.flow)
	}
	rep, err := exp.Report(cfg.Bins)
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Report: rep}, nil
}
