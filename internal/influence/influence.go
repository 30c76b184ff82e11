// Package influence implements influence maximization on Independent
// Cascade Models — the Kempe/Kleinberg/Tardos application the paper's
// introduction motivates (maximising marketing impact on social media):
// choose k seed nodes maximising the expected number of activated nodes.
//
// The expected-spread function of an ICM is monotone and submodular, so
// greedy selection achieves a (1 - 1/e) approximation. Two estimator
// backends drive the greedy loop:
//
//   - Greedy: Monte-Carlo cascade simulation (the classic baseline),
//     with CELF lazy evaluation (submodularity means a node's marginal
//     gain only shrinks as the seed set grows, so stale gains are upper
//     bounds and most re-evaluations can be skipped).
//   - SketchGreedy: RIS/IMM-style reverse-reachability sketches built by
//     mh.BuildRRPool — seed selection becomes exact lazy-greedy maximum
//     coverage over a bitmap pool, orders of magnitude cheaper per
//     evaluation (one popcount loop instead of hundreds of cascades).
//     Its selections are prefixes of one Ranking per pool (RankSketch).
//
// Determinism contract: every selection in this package is a pure
// function of its RNG's state and its inputs AS SETS — fixed seed ⇒
// bit-identical seed set, invariant under candidate-order permutation,
// heap layout and GOMAXPROCS. Both heaps order their entries strictly:
// the CELF heap by (gain desc, round asc, node asc), the sketch
// ranking's by (gain desc, node asc), so with distinct candidates the
// pop sequence depends only on heap contents, never on insertion order
// or internal layout. The Monte-Carlo path also evaluates candidate v
// at round t on its own derived RNG stream (Reseed(base, v<<32|t)), so
// a gain never depends on which evaluations preceded it.
package influence

import (
	"fmt"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// Options controls the Monte-Carlo spread estimation and selection.
type Options struct {
	// Samples is the number of cascade simulations per spread estimate.
	Samples int
	// Candidates restricts the search to these nodes; nil means all.
	// Duplicates are ignored; order never affects the result.
	Candidates []graph.NodeID
}

// DefaultOptions returns a reasonable simulation budget.
func DefaultOptions() Options { return Options{Samples: 500} }

func (o Options) validate(m *core.ICM) error {
	if o.Samples <= 0 {
		return fmt.Errorf("influence: non-positive sample count")
	}
	for _, c := range o.Candidates {
		if c < 0 || int(c) >= m.NumNodes() {
			return fmt.Errorf("influence: candidate %d out of range", c)
		}
	}
	return nil
}

// Spread estimates the expected number of active nodes (including the
// seeds) when seeding the given set.
func Spread(m *core.ICM, seeds []graph.NodeID, samples int, r *rng.RNG) float64 {
	if len(seeds) == 0 {
		return 0
	}
	total := 0
	for i := 0; i < samples; i++ {
		total += m.SampleCascade(r, seeds).NumActive()
	}
	return float64(total) / float64(samples)
}

// Result reports a greedy selection.
type Result struct {
	// Seeds in selection order.
	Seeds []graph.NodeID
	// MarginalGains[i] is the estimated spread gain of Seeds[i] at the
	// time it was selected.
	MarginalGains []float64
	// SpreadEstimate is the estimated spread of the full seed set.
	//
	// Estimator contract: SketchGreedy derives it from the same sketch
	// pool the selection ran on, so it equals the sum of MarginalGains
	// exactly and is bit-reproducible from the pool alone. Greedy
	// estimates it on a dedicated RNG substream reserved at entry, so it
	// is a function of the entry RNG state and the selected set only —
	// the same entry state and seed set always reproduce it, no matter
	// how many CELF evaluations the run happened to perform.
	SpreadEstimate float64
	// Evaluations counts spread estimations performed (the quantity CELF
	// minimises; an eager greedy would use k * |candidates|).
	Evaluations int
}

// estimateStream is the RNG stream index Greedy reserves for the final
// SpreadEstimate. Candidate evaluations use node<<32|round, whose high
// bit is always clear (NodeID is a non-negative int32), so the reserved
// stream can never collide with an evaluation stream.
const estimateStream = ^uint64(0)

// Greedy selects k seeds by CELF lazy greedy maximisation of
// Monte-Carlo expected spread. It returns fewer than k seeds only if
// the graph has fewer distinct candidate nodes. Fixed RNG state ⇒
// bit-identical Result, invariant under candidate-order permutation
// (see the package comment for the mechanism).
func Greedy(m *core.ICM, k int, opts Options, r *rng.RNG) (*Result, error) {
	if err := opts.validate(m); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("influence: non-positive k")
	}
	candidates := opts.Candidates
	if candidates == nil {
		candidates = make([]graph.NodeID, m.NumNodes())
		for v := range candidates {
			candidates[v] = graph.NodeID(v)
		}
	} else {
		candidates, _ = core.DedupSources(m.NumNodes(), candidates)
	}
	// One base seed for the whole run: candidate v at round t is always
	// evaluated on stream v<<32|t of it, so its gain is independent of
	// evaluation order, and the final estimate gets the reserved stream.
	base := r.Uint64()
	evalR := rng.New(0)
	res := &Result{}
	sel := &selector{}
	sel.run(candidates, k, res, func(with []graph.NodeID, node graph.NodeID, round int) float64 {
		evalR.Reseed(base, uint64(node)<<32|uint64(round))
		return Spread(m, with, opts.Samples, evalR)
	})
	evalR.Reseed(base, estimateStream)
	res.SpreadEstimate = Spread(m, res.Seeds, opts.Samples, evalR)
	res.Evaluations++
	return res, nil
}

// selector carries the retained scratch of a CELF run: the gain heap
// and the seed-extension buffer the stale-gain path re-evaluates with.
// Both survive across runs on one selector, so a warm re-evaluation
// loop performs no allocation at all (the old code rebuilt the
// extension slice with two appends per pop).
type selector struct {
	pq      gainQueue
	seedBuf []graph.NodeID
}

// run executes CELF lazy-greedy selection over distinct candidates:
// spreadOf(with, node, round) must return the estimated spread of the
// seed set `with` (the current seeds extended by node; round = current
// seed count). res.Seeds and res.MarginalGains are rebuilt in place
// (reusing their backing arrays when capacity allows);
// res.Evaluations accumulates.
//
// The `with` slice passed to spreadOf is selector-owned scratch, valid
// only for that call.
func (sel *selector) run(candidates []graph.NodeID, k int, res *Result,
	spreadOf func(with []graph.NodeID, node graph.NodeID, round int) float64) {
	pq := sel.pq[:0]
	for _, v := range candidates {
		buf := append(sel.seedBuf[:0], v)
		sel.seedBuf = buf
		gain := spreadOf(buf, v, 0)
		res.Evaluations++
		pq = pq.push(gainEntry{node: v, gain: gain, round: 0})
	}
	current := 0.0
	seeds := res.Seeds[:0]
	gains := res.MarginalGains[:0]
	for len(seeds) < k && len(pq) > 0 {
		top := pq[0]
		pq = pq.pop()
		if top.round == len(seeds) {
			// Fresh evaluation: select it.
			seeds = append(seeds, top.node)
			gains = append(gains, top.gain)
			current += top.gain
			continue
		}
		// Stale: re-evaluate against the current seed set and push back.
		buf := append(sel.seedBuf[:0], seeds...)
		buf = append(buf, top.node)
		sel.seedBuf = buf
		withNode := spreadOf(buf, top.node, len(seeds))
		res.Evaluations++
		pq = pq.push(gainEntry{node: top.node, gain: withNode - current, round: len(seeds)})
	}
	sel.pq = pq[:0]
	res.Seeds = seeds
	res.MarginalGains = gains
}

// gainEntry is one CELF heap entry: a candidate and the marginal gain
// it was last evaluated at.
type gainEntry struct {
	node  graph.NodeID
	gain  float64
	round int // seed-set size the gain was computed against
}

// gainQueue is a max-heap under a STRICT total order: gain descending,
// then round ascending (a sampled gain may rise on re-evaluation, so a
// stale tie is re-evaluated before a fresh entry is selected), then
// node ID ascending. The strictness is load-bearing for determinism:
// with all-distinct entries, the sequence of heap pops depends only on
// the multiset of entries present at each pop, never on insertion order
// or internal layout. The heap is hand-rolled rather than
// container/heap so pushes do not box entries into interfaces — the
// stale-gain loop stays allocation-free.
type gainQueue []gainEntry

func (q gainQueue) less(i, j int) bool {
	a, b := q[i], q[j]
	//flowlint:ignore floatcmp -- heap tiebreak: a total order needs exact equality (MC gains are k/Samples quotients from per-(node,round) streams, equal iff their counts are); a tolerance would break transitivity
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.round != b.round {
		return a.round < b.round
	}
	return a.node < b.node
}

// push appends e and sifts it up; the returned slice replaces q.
func (q gainQueue) push(e gainEntry) gainQueue {
	q = append(q, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	return q
}

// pop removes the top entry (q[0], which the caller reads first) and
// restores the heap; the returned slice replaces q.
func (q gainQueue) pop() gainQueue {
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && q.less(l, best) {
			best = l
		}
		if r < n && q.less(r, best) {
			best = r
		}
		if best == i {
			return q
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
}
