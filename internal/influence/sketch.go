package influence

import (
	"fmt"

	"infoflow/internal/bitset"
	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
)

// SketchOptions configures the RIS sketch pipeline: how the RR pool is
// drawn (chain schedule, roots per thinned sample) and which nodes may
// be selected.
type SketchOptions struct {
	// Chain is the MH schedule pseudo-states are drawn with.
	Chain mh.Options
	// RootsPerSample is the number of RR roots drawn per thinned chain
	// sample; it must be a multiple of 64, and <= 0 selects
	// mh.DefaultRootsPerSample. The pool holds
	// Chain.Samples × RootsPerSample sketch sets.
	RootsPerSample int
	// Words is ignored: it set the width of a retired reverse lane
	// sweep, and stays so existing callers compile.
	//
	// Deprecated: the pool build has no width to set.
	Words int
	// Candidates restricts the selectable seeds; nil means all nodes.
	// Duplicates are ignored; order never affects the result.
	Candidates []graph.NodeID
}

// DefaultSketchOptions returns a pool budget adequate for the graph
// sizes in the paper's experiments: the chain thins as DefaultOptions
// does, 64 thinned samples × 256 roots = 16384 RR sets.
func DefaultSketchOptions(numEdges int) SketchOptions {
	chain := mh.DefaultOptions(numEdges)
	chain.Samples = 64
	return SketchOptions{Chain: chain, RootsPerSample: mh.DefaultRootsPerSample}
}

// Maximize runs the full RIS pipeline: build an RR pool over model m
// under conds targeting targets (nil = every node), then select k seeds
// by SketchGreedy. The pool is returned alongside the result so callers
// can score further seed sets against the same draws (SketchSpread).
// Fixed RNG state ⇒ bit-identical pool and seed set; see
// mh.BuildRRPool and SketchGreedy for the two halves of the contract.
func Maximize(m *core.ICM, k int, targets []graph.NodeID, conds []core.FlowCondition, opts SketchOptions, r *rng.RNG) (*Result, *mh.RRPool, error) {
	pool, err := mh.BuildRRPool(m, targets, conds, opts.RootsPerSample, 0, opts.Chain, r)
	if err != nil {
		return nil, nil, err
	}
	res, err := SketchGreedy(pool, k, opts.Candidates)
	if err != nil {
		return nil, nil, err
	}
	return res, pool, nil
}

// SketchGreedy selects k seeds by exact greedy maximum coverage over an
// RR pool: the k-prefix of the pool's Ranking (see RankSketch), ranked
// only as far as k needs. A candidate's marginal gain is the number of
// not-yet-covered sketch sets its cover row would add, and the largest
// gain wins, ties to the lowest node id. It returns fewer than k seeds
// only if there are fewer distinct candidates. The selection is a
// deterministic function of the pool and the candidate SET — no RNG, no
// order sensitivity.
//
// Result.MarginalGains are the per-seed gains scaled to spread units
// (pool.SpreadScale() × newly covered sets) and Result.SpreadEstimate
// is exactly their sum — the RIS estimate of the selected set's
// expected spread over the pool's target universe.
func SketchGreedy(pool *mh.RRPool, k int, candidates []graph.NodeID) (*Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("influence: non-positive k")
	}
	rk, err := newRanker(pool, candidates)
	if err != nil {
		return nil, err
	}
	rk.extend(k)
	res := rk.out.Prefix(k)
	res.Evaluations = rk.evaluations
	return res, nil
}

// SketchSpread scores an arbitrary seed set against an RR pool: the
// RIS estimate of its expected spread over the pool's target universe,
// from exactly the same draws the selection used. Out-of-range seeds
// are ignored (they can activate nothing the pool measures).
func SketchSpread(pool *mh.RRPool, seeds []graph.NodeID) float64 {
	covered := bitset.New(pool.NumSets)
	for _, v := range seeds {
		if v < 0 || int(v) >= pool.Cover.Rows() {
			continue
		}
		pool.Cover.OrInto(int(v), covered)
	}
	return pool.SpreadScale() * float64(covered.Count())
}
