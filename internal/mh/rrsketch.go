package mh

import (
	"fmt"
	"math"

	"infoflow/internal/bitset"
	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// DefaultRootsPerSample is the number of RR roots drawn per thinned
// chain sample when the caller does not say otherwise: enough that one
// chain sample contributes many near-independent sketch sets, while
// their traversals stay cheap next to the Thin chain steps between
// samples.
const DefaultRootsPerSample = 256

// RRPool is a pool of reverse-reachability (RR) sketch sets over one
// model: set b was built by drawing root_b uniformly from the target
// universe and a pseudo-state x_b from the MH chain, and contains every
// node that reaches root_b across the active edges of x_b. Cover is the
// node-major transpose the greedy ranking wants: row u holds b iff u
// belongs to set b, so a seed set's estimated spread is
//
//	spread(S) = (Universe / NumSets) × |⋃_{u∈S} Cover.Row(u)|
//
// — the standard RIS estimator: each covered set is one (root, state)
// draw in which some seed would have activated the root. Spread here
// counts activated targets INCLUDING seeds that are themselves targets
// (a root always belongs to its own RR set), matching influence.Spread.
type RRPool struct {
	// Cover is the node-major cover: NumNodes rows over NumSets
	// columns, row u listing the ids of the sets u belongs to, or
	// holding them as NumSets/64 dense words once that is smaller.
	Cover *bitset.SparseRows
	// Roots[b] is the target node RR set b was grown from.
	Roots []graph.NodeID
	// NumSets is the number of RR sets in the pool (Samples ×
	// RootsPerSample; always a multiple of 64).
	NumSets int
	// Universe is the size of the target universe roots were drawn
	// from: the number of distinct targets, or NumNodes when the pool
	// targets the whole graph.
	Universe int
	// Targets holds the distinct target nodes, nil when the pool
	// targets the whole graph.
	Targets []graph.NodeID
}

// SpreadScale converts a covered-set count into an expected-spread
// estimate: spread(S) = SpreadScale() × |sets covered by S|.
func (p *RRPool) SpreadScale() float64 {
	return float64(p.Universe) / float64(p.NumSets)
}

// BuildRRPool draws a fresh MH chain over model m under conds and
// builds an RR pool of opts.Samples × rootsPerSample sketch sets
// targeting targets (nil or empty = every node). rootsPerSample must be
// a positive multiple of 64 (<= 0 selects DefaultRootsPerSample), and
// the pool may hold at most MaxUint32 sets, since the cover stores set
// ids as uint32. Each thinned sample grows every one of its roots' RR
// sets with one packed BFS against edge direction (coverRoots). The
// words argument is deprecated and ignored: it set the width of a
// retired lane sweep, and stays so existing callers compile.
// opts.Interrupt cancellation is honoured between thinned samples.
//
// Determinism contract: the root stream is forked from r BEFORE the
// chain consumes anything, so the sampled (root, state) pairs — and
// therefore the pool, bit for bit — depend only on r's state, the
// model, conds, targets, rootsPerSample and opts.
func BuildRRPool(m *core.ICM, targets []graph.NodeID, conds []core.FlowCondition, rootsPerSample, words int, opts Options, r *rng.RNG) (*RRPool, error) {
	n := m.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("mh: BuildRRPool on an empty graph")
	}
	if rootsPerSample <= 0 {
		rootsPerSample = DefaultRootsPerSample
	}
	if rootsPerSample%LaneWidth != 0 {
		return nil, fmt.Errorf("mh: rootsPerSample %d is not a multiple of %d", rootsPerSample, LaneWidth)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if uint64(opts.Samples) > math.MaxUint32/uint64(rootsPerSample) {
		return nil, fmt.Errorf("mh: %d samples × %d roots overflow a 32-bit RR set id", opts.Samples, rootsPerSample)
	}
	if err := checkNodes(m, "target", targets...); err != nil {
		return nil, err
	}
	var universe []graph.NodeID
	universeSize := n
	if len(targets) > 0 {
		universe, _ = core.DedupSources(n, targets)
		universeSize = len(universe)
	}

	// Pre-draw every root from the root stream: the chain never touches
	// rootR and the traversals consume no randomness, so the chain's
	// sample stream is exactly what any other estimator sees under the
	// same Options.
	rootR := r.Fork()
	numSets := opts.Samples * rootsPerSample
	roots := make([]graph.NodeID, numSets)
	for i := range roots {
		if universe == nil {
			roots[i] = graph.NodeID(rootR.Intn(n))
		} else {
			roots[i] = universe[rootR.Intn(len(universe))]
		}
	}
	s, err := NewSampler(m, conds, r)
	if err != nil {
		return nil, err
	}
	pool := &RRPool{
		Cover:    bitset.NewSparseRows(n, numSets),
		Roots:    roots,
		NumSets:  numSets,
		Universe: universeSize,
		Targets:  universe,
	}
	reached := bitset.New(n)
	sample := 0
	err = s.Run(opts, func(x core.PseudoState) {
		base := sample * rootsPerSample
		coverRoots(m.G, roots[base:base+rootsPerSample], x, s.scratch, reached, pool.Cover, base)
		sample++
	})
	if err != nil {
		return nil, err
	}
	pool.Cover.Seal()
	return pool, nil
}

// coverRoots appends set base+b to cover's row u for every root b of
// one thinned state x and every node u that reaches roots[b] across x:
// one packed BFS against edge direction per root into reached (which
// must hold NumNodes bits), whose nodes then gain the set. Sets arrive
// in ascending id order, as SparseRows.AppendColumn requires, and the
// rows read them once the cover is sealed. The loop itself allocates
// nothing; the cover's staging takes a new chunk every 16,384 list
// memberships, and a row that switches to dense words allocates them
// once.
//
//flowlint:hotpath
func coverRoots(g *graph.DiGraph, roots []graph.NodeID, x bitset.Set, sc *graph.Scratch, reached bitset.Set, cover *bitset.SparseRows, base int) {
	for b := range roots {
		reached = g.ReachableBitsReverseInto(roots[b:b+1], x, sc, reached)
		cover.AppendColumn(base+b, reached)
	}
}
