package mh

import (
	"fmt"
	"sync"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// fanOut runs job(i, r_i) for every i in [0, jobs) on at most workers
// goroutines and waits for all of them. r_i is the i-th RNG forked from
// rng.New(seed), every fork drawn in job order before any goroutine
// starts, so which worker runs a job cannot change what it computes.
// It returns the lowest failing index and its error, or -1 and nil.
func fanOut(jobs, workers int, seed uint64, job func(i int, r *rng.RNG) error) (int, error) {
	seeder := rng.New(seed)
	rngs := make([]*rng.RNG, jobs)
	for i := range rngs {
		rngs[i] = seeder.Fork()
	}
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < min(workers, jobs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = job(i, rngs[i])
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// ParallelFlowProbs estimates Pr[source ~> sink] for many queries
// concurrently, one independent chain per query, using up to workers
// goroutines. Each query gets its own RNG forked deterministically from
// seed, so results are reproducible regardless of scheduling. Queries
// share the (read-only) model.
//
// This is the throughput shape real deployments need: the paper's
// per-query chains are cheap but risk-audit workloads ask thousands of
// them.
func ParallelFlowProbs(m *core.ICM, queries []FlowPair, conds []core.FlowCondition, opts Options, workers int, seed uint64) ([]float64, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		return nil, fmt.Errorf("mh: non-positive worker count")
	}
	results := make([]float64, len(queries))
	i, err := fanOut(len(queries), workers, seed, func(i int, r *rng.RNG) (err error) {
		results[i], err = FlowProb(m, queries[i].Source, queries[i].Sink, conds, opts, r)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("query %d (%d~>%d): %w", i, queries[i].Source, queries[i].Sink, err)
	}
	return results, nil
}

// ParallelCommunityFlows runs CommunityFlowProbs for several sources
// concurrently with deterministic per-source RNGs. The result is indexed
// [source][node].
func ParallelCommunityFlows(m *core.ICM, sources []graph.NodeID, opts Options, workers int, seed uint64) ([][]float64, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		return nil, fmt.Errorf("mh: non-positive worker count")
	}
	results := make([][]float64, len(sources))
	i, err := fanOut(len(sources), workers, seed, func(i int, r *rng.RNG) (err error) {
		results[i], err = CommunityFlowProbs(m, sources[i], nil, opts, r)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("source %d: %w", sources[i], err)
	}
	return results, nil
}
