package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
)

// BatchConfig parameterises the batched-estimator timing comparison: the
// same flow queries against one ICM answered two ways — one FlowProb
// chain per pair (how PR 1 experiments ran) versus a single chain whose
// thinned samples answer every pair (FlowProbBatch). It is the engineering companion to Fig. 6: not a
// figure from the paper, but the measurement justifying the batched path
// the drivers now use.
type BatchConfig struct {
	Seed  uint64
	Nodes int // graph size (paper's §IV-C timing scale: 6000)
	Edges int // paper: 14000
	Pairs int // flow queries sharing the model
	MH    mh.Options
	// Clock supplies the timestamps bracketing each measurement; nil
	// uses time.Now. Injectable so the timing columns are testable and
	// wall-clock reads stay explicit (the fig6 idiom).
	Clock func() time.Time
}

// BatchPaper returns the §IV-C-scale configuration.
func BatchPaper() BatchConfig {
	return BatchConfig{
		Seed: 64, Nodes: 6000, Edges: 14000, Pairs: 64,
		MH: mh.Options{BurnIn: 2000, Thin: 200, Samples: 200},
	}
}

// BatchSmall returns a fast configuration for tests.
func BatchSmall() BatchConfig {
	return BatchConfig{
		Seed: 64, Nodes: 300, Edges: 800, Pairs: 64,
		MH: mh.Options{BurnIn: 200, Thin: 20, Samples: 100},
	}
}

// BatchResult reports both timings and an estimate-agreement figure.
type BatchResult struct {
	Pairs      int
	Samples    int
	Sequential time.Duration // total for Pairs independent FlowProb chains
	Batched    time.Duration // total for one FlowProbBatch chain
	// MeanAbsDiff is the mean |sequential - batched| estimate gap: the
	// two paths run different chains, so they agree statistically (to
	// Monte-Carlo error), not exactly.
	MeanAbsDiff float64
}

// String renders the comparison table.
func (r *BatchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Batched estimation: %d flow queries, %d samples each\n", r.Pairs, r.Samples)
	fmt.Fprintf(&b, "%-28s %12v\n", "sequential (one chain/pair):", r.Sequential)
	fmt.Fprintf(&b, "%-28s %12v\n", "batched (one shared chain):", r.Batched)
	if r.Batched > 0 {
		fmt.Fprintf(&b, "%-28s %11.1fx\n", "speedup:", float64(r.Sequential)/float64(r.Batched))
	}
	fmt.Fprintf(&b, "%-28s %12.4f\n", "mean |estimate gap|:", r.MeanAbsDiff)
	return b.String()
}

// RunBatch measures the comparison.
func RunBatch(cfg BatchConfig) (*BatchResult, error) {
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	r := rng.New(cfg.Seed)
	g := graph.Random(r, cfg.Nodes, cfg.Edges)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = r.Float64()
	}
	m, err := core.NewICM(g, p)
	if err != nil {
		return nil, err
	}
	pairs := make([]mh.FlowPair, cfg.Pairs)
	for i := range pairs {
		u := graph.NodeID(r.Intn(cfg.Nodes))
		v := graph.NodeID(r.Intn(cfg.Nodes))
		for v == u {
			v = graph.NodeID(r.Intn(cfg.Nodes))
		}
		pairs[i] = mh.FlowPair{Source: u, Sink: v}
	}
	seqEst := make([]float64, len(pairs))
	seqRNG := rng.New(cfg.Seed + 1)
	start := now()
	for i, pair := range pairs {
		est, err := mh.FlowProb(m, pair.Source, pair.Sink, nil, cfg.MH, seqRNG.Fork())
		if err != nil {
			return nil, fmt.Errorf("batch: sequential pair %d: %w", i, err)
		}
		seqEst[i] = est
	}
	seqDur := now().Sub(start)
	start = now()
	batchEst, err := mh.FlowProbBatch(m, pairs, nil, cfg.MH, rng.New(cfg.Seed+2))
	if err != nil {
		return nil, fmt.Errorf("batch: batched run: %w", err)
	}
	batchDur := now().Sub(start)
	gap := 0.0
	for i := range pairs {
		gap += math.Abs(seqEst[i] - batchEst[i])
	}
	return &BatchResult{
		Pairs:       cfg.Pairs,
		Samples:     cfg.MH.Samples,
		Sequential:  seqDur,
		Batched:     batchDur,
		MeanAbsDiff: gap / float64(len(pairs)),
	}, nil
}
