package influence

import (
	"math"
	"testing"

	"infoflow/internal/bitset"
	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
)

// randomPool draws a graph.Random(n, m) model with edge probabilities
// uniform in [lo, hi) and builds an RR pool of samples × roots sets on
// it, rooted in targets (nil = every node).
func randomPool(t testing.TB, seed uint64, n, m int, lo, hi float64, targets []graph.NodeID, samples, roots int) *mh.RRPool {
	t.Helper()
	r := rng.New(seed)
	g := graph.Random(r, n, m)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = r.Uniform(lo, hi)
	}
	opts := mh.Options{BurnIn: 4 * g.NumEdges(), Thin: g.NumEdges(), Samples: samples}
	pool, err := mh.BuildRRPool(core.MustNewICM(g, p), targets, nil, roots, 0, opts, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// naiveGreedy is the reference max-coverage greedy: every round it
// recomputes every remaining candidate's gain, takes the largest, and
// breaks ties to the lowest id, until every distinct candidate is
// ranked. Its k-prefix is its answer for budget k.
func naiveGreedy(pool *mh.RRPool, candidates []graph.NodeID) *Result {
	n := pool.Cover.Rows()
	_, in := core.DedupSources(n, candidates)
	if candidates == nil {
		for v := range in {
			in[v] = true
		}
	}
	covered := bitset.New(pool.NumSets)
	res := &Result{}
	for {
		best, bestGain := -1, -1
		for v := 0; v < n; v++ {
			if !in[v] {
				continue
			}
			if gain := bitset.Set(pool.Cover.Row(v)).AndNotCount(covered); gain > bestGain {
				best, bestGain = v, gain
			}
		}
		if best < 0 {
			return res
		}
		in[best] = false
		bitset.Set(pool.Cover.Row(best)).OrInto(covered)
		res.Seeds = append(res.Seeds, graph.NodeID(best))
		res.MarginalGains = append(res.MarginalGains, float64(bestGain)*pool.SpreadScale())
	}
}

// TestSketchGreedyMatchesNaiveGreedy is the property test of the lazy
// ranking: on near- and supercritical pools, whole-graph and targeted,
// with and without a candidate restriction, SketchGreedy and the
// Ranking's prefix equal the reference greedy for every budget up to n,
// bit for bit, including past saturation where every gain is 0.
func TestSketchGreedyMatchesNaiveGreedy(t *testing.T) {
	const n, m = 60, 150
	pools := []struct {
		name    string
		lo, hi  float64
		targets []graph.NodeID
	}{
		{"near_critical", 0.3, 0.5, nil},
		{"supercritical", 0.5, 1, nil},
		{"near_critical_targets", 0.3, 0.5, []graph.NodeID{1, 4, 9, 16, 25, 36, 49}},
		{"supercritical_targets", 0.5, 1, []graph.NodeID{2, 3, 5, 7, 11, 13}},
	}
	perm := rng.New(91)
	pastSaturation := 0
	for i, pc := range pools {
		pool := randomPool(t, uint64(100+10*i), n, m, pc.lo, pc.hi, pc.targets, 24, 64)
		restricted := make([]graph.NodeID, 0, n)
		for _, v := range perm.Perm(n)[:n/2] {
			restricted = append(restricted, graph.NodeID(v))
		}
		restricted = append(restricted, restricted[:5]...)
		for _, cands := range [][]graph.NodeID{nil, restricted} {
			want := naiveGreedy(pool, cands)
			saturated := len(want.Seeds)
			for saturated > 0 && want.MarginalGains[saturated-1] == 0 {
				saturated--
			}
			pastSaturation += len(want.Seeds) - saturated
			ranking, err := RankSketch(pool, cands)
			if err != nil {
				t.Fatal(err)
			}
			if len(ranking.seeds) != saturated {
				t.Errorf("%s: ranking stores %d seeds, saturation is at %d", pc.name, len(ranking.seeds), saturated)
			}
			for k := 1; k <= n+1; k++ {
				got, err := SketchGreedy(pool, k, cands)
				if err != nil {
					t.Fatal(err)
				}
				prefix := ranking.Prefix(k)
				wantK := min(k, len(want.Seeds))
				estimate := 0.0
				for _, g := range want.MarginalGains[:wantK] {
					estimate += g
				}
				for _, res := range []*Result{got, prefix} {
					if len(res.Seeds) != wantK || math.Float64bits(res.SpreadEstimate) != math.Float64bits(estimate) {
						t.Fatalf("%s restricted=%v k=%d: %d seeds, estimate %v; want %d, %v",
							pc.name, cands != nil, k, len(res.Seeds), res.SpreadEstimate, wantK, estimate)
					}
					for j := range res.Seeds {
						if res.Seeds[j] != want.Seeds[j] || math.Float64bits(res.MarginalGains[j]) != math.Float64bits(want.MarginalGains[j]) {
							t.Fatalf("%s restricted=%v k=%d: seeds %v gains %v; want %v %v", pc.name, cands != nil, k,
								res.Seeds, res.MarginalGains, want.Seeds[:wantK], want.MarginalGains[:wantK])
						}
					}
				}
			}
		}
	}
	if pastSaturation == 0 {
		t.Fatal("no pool saturates before its last candidate: the order past saturation went unchecked")
	}
}

// TestSketchRankEvaluationBound: ranking every node of a 300-node pool
// evaluates each candidate a few times, not once per tie per round. A
// heap ordered (gain, round, node), as the Monte-Carlo selector's is,
// re-evaluates every stale tie before it selects: 10, 43 and 142
// evaluations per node on these pools, against the ranking's 5.7, 3.2
// and 1.9.
func TestSketchRankEvaluationBound(t *testing.T) {
	const n, m = 300, 750
	for i, pc := range []struct {
		lo, hi  float64
		targets []graph.NodeID
	}{
		{0.3, 0.5, nil},
		{0.5, 1, nil},
		{0.3, 0.5, []graph.NodeID{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}},
	} {
		pool := randomPool(t, uint64(200+10*i), n, m, pc.lo, pc.hi, pc.targets, 32, 256)
		res, err := SketchGreedy(pool, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Seeds) != n {
			t.Fatalf("pool %d: ranked %d of %d nodes", i, len(res.Seeds), n)
		}
		if res.Evaluations > 6*n {
			t.Errorf("pool %d: %d evaluations (%.1f per node) to rank every node, want at most 6 per node",
				i, res.Evaluations, float64(res.Evaluations)/n)
		}
	}
}

// TestRankSketchIsCompact: a saturated ranking keeps exactly its ranked
// seeds and their counts, 8 bytes a seed, with no slack capacity.
func TestRankSketchIsCompact(t *testing.T) {
	pool := randomPool(t, 300, 80, 200, 0.5, 1, nil, 16, 64)
	ranking, err := RankSketch(pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking.seeds) == 0 || len(ranking.seeds) > min(pool.Cover.Rows(), pool.NumSets) {
		t.Fatalf("%d ranked seeds, want 1..min(nodes, sets)", len(ranking.seeds))
	}
	if cap(ranking.seeds) != len(ranking.seeds) || cap(ranking.counts) != len(ranking.counts) {
		t.Errorf("seeds/counts len %d/%d cap %d/%d, want no slack",
			len(ranking.seeds), len(ranking.counts), cap(ranking.seeds), cap(ranking.counts))
	}
	if ranking.candidates != nil {
		t.Error("a whole-graph ranking stores its candidate list")
	}
	for i, c := range ranking.counts {
		if c == 0 {
			t.Fatalf("seed %d of the saturated prefix covers nothing new", i)
		}
	}
}
