package mh

import (
	"fmt"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// FlowProbChains estimates Pr[source ~> sink | conds] by splitting
// opts.Samples across `chains` independent Metropolis-Hastings chains
// run concurrently and merging their hit counts — parallel speedup for a
// single large query, complementing ParallelFlowProbs' one-chain-per-query
// throughput shape.
//
// Each chain pays its own burn-in, so total work exceeds the single-chain
// estimator's by (chains-1)*BurnIn steps; wall-clock time still drops
// roughly by the chain count once Samples*Thin dominates. Independent
// chains also harden the estimate against a single chain stuck in a
// low-probability mode (the same rationale as GelmanRubin diagnostics).
//
// Every chain's RNG is forked deterministically from seed before any
// goroutine starts, hit counts are merged in chain order, and each chain
// owns its sampler (and therefore its traversal scratch), so the result
// is bit-identical for a fixed (seed, chains, opts) regardless of
// GOMAXPROCS or scheduling. If chains exceeds opts.Samples it is clamped
// to opts.Samples so every chain draws at least one sample.
func FlowProbChains(m *core.ICM, source, sink graph.NodeID, conds []core.FlowCondition, opts Options, chains int, seed uint64) (float64, error) {
	if err := opts.validate(); err != nil {
		return 0, err
	}
	if chains <= 0 {
		return 0, fmt.Errorf("mh: non-positive chain count")
	}
	if err := checkFlow(m, source, sink); err != nil {
		return 0, err
	}
	chains = min(chains, opts.Samples)
	base, extra := opts.Samples/chains, opts.Samples%chains
	hits := make([]int, chains)
	c, err := fanOut(chains, chains, seed, func(c int, r *rng.RNG) error {
		o := opts
		o.Samples = base
		if c < extra {
			o.Samples++
		}
		s, err := NewSampler(m, conds, r)
		if err != nil {
			return err
		}
		return s.Run(o, func(x core.PseudoState) {
			if m.HasFlowScratch(source, sink, x, s.scratch) {
				hits[c]++
			}
		})
	})
	if err != nil {
		return 0, fmt.Errorf("chain %d: %w", c, err)
	}
	total := 0
	for _, h := range hits {
		total += h
	}
	return float64(total) / float64(opts.Samples), nil
}
