package influence

import (
	"fmt"
	"math"

	"infoflow/internal/bitset"
	"infoflow/internal/graph"
	"infoflow/internal/mh"
)

// Ranking is the greedy max-coverage order of an RR pool's candidates.
// Greedy picks one seed at a time, so the selection for budget k is the
// k-prefix of this one order. It stores the seeds ranked up to
// saturation with the sets each newly covered: 8 bytes a seed, and at
// most min(nodes, NumSets) seeds, because each of them covers a set no
// earlier seed does (a restricted candidate set adds a bit a node).
// Past saturation every gain is 0 and the order is the remaining
// candidates by ascending id.
type Ranking struct {
	seeds  []graph.NodeID
	counts []uint32 // counts[i] > 0: the sets seeds[i] newly covered
	scale  float64  // the pool's SpreadScale
	// candidates marks the candidate set; nil means every node in
	// [0, nodes).
	candidates bitset.Set
	nodes      int
}

// RankSketch ranks candidates (nil = every node) by greedy maximum
// coverage over pool up to saturation, when no remaining candidate
// covers a set the ranked ones miss. The Ranking keeps no reference to
// the pool, and its Prefix(k) equals SketchGreedy(pool, k, candidates)
// for every k.
func RankSketch(pool *mh.RRPool, candidates []graph.NodeID) (*Ranking, error) {
	rk, err := newRanker(pool, candidates)
	if err != nil {
		return nil, err
	}
	rk.extend(len(rk.pq))
	out := rk.out
	out.seeds = append(make([]graph.NodeID, 0, len(out.seeds)), out.seeds...)
	out.counts = append(make([]uint32, 0, len(out.counts)), out.counts...)
	return &out, nil
}

// Prefix returns the first k seeds of the ranking (fewer only if there
// are fewer candidates) with their gains in spread units, and the
// running sum of those gains as the spread estimate.
func (r *Ranking) Prefix(k int) *Result {
	m := min(k, len(r.seeds))
	res := &Result{Seeds: append([]graph.NodeID(nil), r.seeds[:m]...), MarginalGains: make([]float64, m)}
	for i, c := range r.counts[:m] {
		res.MarginalGains[i] = float64(c) * r.scale
		res.SpreadEstimate += res.MarginalGains[i]
	}
	if k == m {
		return res
	}
	ranked := bitset.New(r.nodes)
	for _, v := range r.seeds {
		ranked.Set(int(v))
	}
	for v := 0; v < r.nodes && len(res.Seeds) < k; v++ {
		if r.isCandidate(v) && !ranked.Test(v) {
			res.Seeds = append(res.Seeds, graph.NodeID(v))
			res.MarginalGains = append(res.MarginalGains, 0)
		}
	}
	return res
}

func (r *Ranking) isCandidate(v int) bool { return r.candidates == nil || r.candidates.Test(v) }

// Bytes returns the size of what the ranking keeps: its seeds, their
// counts and the candidate set.
func (r *Ranking) Bytes() int { return 4*len(r.seeds) + 4*len(r.counts) + 8*len(r.candidates) }

// ranker extends a Ranking on demand. Its heap holds one entry per
// unranked candidate, keyed by the gain it was last evaluated at.
// Coverage is submodular and the gains are exact counts, so a stale
// gain is an upper bound: a fresh entry on top of the heap has the
// largest gain, and since equal gains order by node, the lowest id
// among them.
type ranker struct {
	pool        *mh.RRPool
	covered     bitset.Set
	pq          rankQueue
	out         Ranking
	evaluations int
}

func newRanker(pool *mh.RRPool, candidates []graph.NodeID) (*ranker, error) {
	n := pool.Cover.Rows()
	if uint64(pool.NumSets) > math.MaxUint32 {
		return nil, fmt.Errorf("influence: %d RR sets overflow a 32-bit gain", pool.NumSets)
	}
	rk := &ranker{pool: pool, covered: bitset.New(pool.NumSets), out: Ranking{scale: pool.SpreadScale(), nodes: n}}
	if candidates != nil {
		rk.out.candidates = bitset.New(n)
		for _, c := range candidates {
			if c < 0 || int(c) >= n {
				return nil, fmt.Errorf("influence: candidate %d out of range", c)
			}
			rk.out.candidates.Set(int(c))
		}
	}
	for v := 0; v < n; v++ {
		if rk.out.isCandidate(v) {
			rk.pq = append(rk.pq, rankEntry{node: graph.NodeID(v), gain: uint32(pool.Cover.RowCount(v))})
		}
	}
	rk.evaluations = len(rk.pq)
	for i := len(rk.pq)/2 - 1; i >= 0; i-- {
		rk.pq.down(i)
	}
	return rk, nil
}

// extend ranks seeds until k are ranked or the ranking saturates: every
// candidate is ranked, or the best remaining gain is 0.
func (rk *ranker) extend(k int) {
	for len(rk.out.seeds) < k && len(rk.pq) > 0 && rk.pq[0].gain > 0 {
		top := &rk.pq[0]
		if round := int32(len(rk.out.seeds)); top.round != round {
			// Stale: refresh the gain against the current cover in place.
			top.gain, top.round = uint32(rk.pool.Cover.AndNotCount(int(top.node), rk.covered)), round
			rk.evaluations++
			rk.pq.down(0)
			continue
		}
		rk.out.seeds = append(rk.out.seeds, top.node)
		rk.out.counts = append(rk.out.counts, top.gain)
		rk.pool.Cover.OrInto(int(top.node), rk.covered)
		rk.pq = rk.pq.pop()
	}
}

// rankEntry is one candidate's heap entry: the gain it was last
// evaluated at, and the number of seeds ranked at that time.
type rankEntry struct {
	node  graph.NodeID
	gain  uint32
	round int32
}

// rankQueue is a max-heap ordered by gain descending, then node id
// ascending. Each candidate holds exactly one entry, so this order is
// strict, and the pops depend only on the heap's contents. Unlike the
// Monte-Carlo selector it does not put older evaluations first among
// equal gains: exact gains never rise on re-evaluation, so a stale tie
// with a higher id can never overtake a fresh entry.
type rankQueue []rankEntry

func (q rankQueue) less(i, j int) bool {
	if q[i].gain != q[j].gain {
		return q[i].gain > q[j].gain
	}
	return q[i].node < q[j].node
}

// down sifts entry i toward the leaves until the heap order holds.
func (q rankQueue) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(q) && q.less(l, best) {
			best = l
		}
		if r < len(q) && q.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
}

// pop removes the top entry; the returned slice replaces q.
func (q rankQueue) pop() rankQueue {
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	q.down(0)
	return q
}
