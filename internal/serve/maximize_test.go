package serve

import (
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/influence"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
)

// hubICM is the community fixture: hub 0 feeds 1..4 with certain edges,
// 5..9 are a disjoint certain chain 5->6->...->9.
func hubICM() *core.ICM {
	g := graph.New(10)
	for v := 1; v <= 4; v++ {
		g.MustAddEdge(0, graph.NodeID(v))
	}
	for v := 5; v < 9; v++ {
		g.MustAddEdge(graph.NodeID(v), graph.NodeID(v+1))
	}
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 1
	}
	return core.MustNewICM(g, p)
}

// TestServerMaximize: the served selection is bit-identical to the
// library call with the same schedule and seed, and a repeat request is
// a cache hit with the identical payload.
func TestServerMaximize(t *testing.T) {
	srv, ts, _ := startServer(t, func(c *Config) {
		c.Models = []Model{{Name: "m", ICM: serveDAG(7, 20, 40)}}
	})
	m := srv.models["m"].ICM

	var resp maximizeResponse
	if status := getJSON(t, ts.URL+"/maximize?k=3&seed=5", &resp); status != http.StatusOK {
		t.Fatalf("status %d: %+v", status, resp)
	}
	if resp.Cached || resp.K != 3 || resp.Seed != 5 {
		t.Fatalf("k/seed/cached = %d/%d/%v, want 3/5/false", resp.K, resp.Seed, resp.Cached)
	}
	chain := influence.DefaultSketchOptions(m.NumEdges()).Chain
	want, pool, err := influence.Maximize(m, 3, nil, nil,
		influence.SketchOptions{Chain: chain, RootsPerSample: mh.DefaultRootsPerSample}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Seeds) != len(want.Seeds) {
		t.Fatalf("%d seeds, want %d", len(resp.Seeds), len(want.Seeds))
	}
	for i := range want.Seeds {
		if resp.Seeds[i] != want.Seeds[i] || resp.MarginalGains[i] != want.MarginalGains[i] {
			t.Fatalf("seeds/gains %v/%v, want %v/%v (served selection must match the library bit-for-bit)",
				resp.Seeds, resp.MarginalGains, want.Seeds, want.MarginalGains)
		}
	}
	if resp.SpreadEstimate != want.SpreadEstimate {
		t.Errorf("estimate %v, want %v", resp.SpreadEstimate, want.SpreadEstimate)
	}
	if resp.Universe != pool.Universe || resp.RRSets != pool.NumSets {
		t.Errorf("universe/rr_sets %d/%d, want %d/%d", resp.Universe, resp.RRSets, pool.Universe, pool.NumSets)
	}

	var again maximizeResponse
	if status := getJSON(t, ts.URL+"/maximize?k=3&seed=5", &again); status != http.StatusOK {
		t.Fatalf("repeat status %d", status)
	}
	if !again.Cached {
		t.Error("repeat request not served from cache")
	}
	for i := range resp.Seeds {
		if again.Seeds[i] != resp.Seeds[i] || again.MarginalGains[i] != resp.MarginalGains[i] {
			t.Fatalf("cached payload diverged: %v vs %v", again.Seeds, resp.Seeds)
		}
	}
	mm := srv.Metrics()
	if got := mm.MaximizeRequests.Load(); got != 2 {
		t.Errorf("maximize_requests = %d, want 2", got)
	}
	if got := mm.MaximizeSeeds.Load(); got != int64(len(resp.Seeds)) {
		t.Errorf("maximize_seeds = %d, want %d (cache hits must not double-count)", got, len(resp.Seeds))
	}
	if got := mm.MaximizeSketchSets.Load(); got != int64(pool.NumSets) {
		t.Errorf("maximize_rr_sets = %d, want %d", got, pool.NumSets)
	}
	if _, ok := mm.Snapshot()["maximize_requests"]; !ok {
		t.Error("maximize_requests missing from the metrics snapshot")
	}
}

// TestServerMaximizeMembersMetric: after one miss, /metrics reports as
// maximize_rr_members the (node, set) memberships of the pool the miss
// built, the sum of the library pool's row sizes, next to its
// maximize_rr_sets; a cache hit adds nothing to either.
func TestServerMaximizeMembersMetric(t *testing.T) {
	srv, ts, _ := startServer(t, nil)
	m := srv.models["m"].ICM
	for i := 0; i < 2; i++ {
		var resp maximizeResponse
		if status := getJSON(t, ts.URL+"/maximize?k=2&seed=9&community=1,4,6,9,12", &resp); status != http.StatusOK {
			t.Fatalf("status %d: %+v", status, resp)
		}
	}
	chain := influence.DefaultSketchOptions(m.NumEdges()).Chain
	pool, err := mh.BuildRRPool(m, []graph.NodeID{1, 4, 6, 9, 12}, nil, mh.DefaultRootsPerSample, 0, chain, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	members := 0
	for v := 0; v < pool.Cover.Rows(); v++ {
		for _, w := range pool.Cover.Row(v) {
			members += bits.OnesCount64(w)
		}
	}
	if members == 0 {
		t.Fatal("the reference pool has no memberships")
	}

	var payload struct {
		Flowserve map[string]float64 `json:"flowserve"`
	}
	if status := getJSON(t, ts.URL+"/metrics", &payload); status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	if got := payload.Flowserve["maximize_rr_members"]; got != float64(members) {
		t.Errorf("/metrics maximize_rr_members = %v, want %d", got, members)
	}
	if got := payload.Flowserve["maximize_rr_sets"]; got != float64(pool.NumSets) {
		t.Errorf("/metrics maximize_rr_sets = %v, want %d", got, pool.NumSets)
	}
	if got := srv.Metrics().Snapshot()["maximize_rr_members"]; got != int64(members) {
		t.Errorf("snapshot maximize_rr_members = %v, want %d", got, members)
	}
}

// TestServerMaximizeCommunity: a community target restricts the spread
// universe; permuted and duplicated target lists share one cache line.
func TestServerMaximizeCommunity(t *testing.T) {
	_, ts, _ := startServer(t, func(c *Config) {
		c.Models = []Model{{Name: "m", ICM: hubICM()}}
	})
	var resp maximizeResponse
	if status := getJSON(t, ts.URL+"/maximize?k=1&community=1,2,3,4", &resp); status != http.StatusOK {
		t.Fatalf("status %d: %+v", status, resp)
	}
	if len(resp.Seeds) != 1 || resp.Seeds[0] != 0 {
		t.Fatalf("community seeds = %v, want the hub [0]", resp.Seeds)
	}
	if resp.SpreadEstimate != 4 || resp.Universe != 4 {
		t.Fatalf("estimate/universe = %v/%d, want exactly 4/4 (certain edges)", resp.SpreadEstimate, resp.Universe)
	}
	var again maximizeResponse
	if status := getJSON(t, ts.URL+"/maximize?k=1&community=4,3,2,1,1", &again); status != http.StatusOK {
		t.Fatalf("permuted status %d", status)
	}
	if !again.Cached {
		t.Error("permuted+duplicated community did not hit the canonical cache line")
	}
}

// TestServerMaximizeErrors covers the rejection surface: parameter
// validation (400), unknown models (404), and unsatisfiable flow
// conditions (422).
func TestServerMaximizeErrors(t *testing.T) {
	certain := core.MustNewICM(graph.Path(2), []float64{1})
	_, ts, _ := startServer(t, func(c *Config) {
		c.Models = []Model{
			{Name: "m", ICM: serveDAG(7, 20, 40)},
			{Name: "certain", ICM: certain},
		}
	})
	cases := []struct {
		query  string
		status int
	}{
		{"model=m", http.StatusBadRequest},                               // missing k
		{"model=m&k=0", http.StatusBadRequest},                           // non-positive budget
		{"model=m&k=bogus", http.StatusBadRequest},                       // non-numeric budget
		{"model=m&k=21", http.StatusBadRequest},                          // budget beyond the node count
		{"model=m&k=2&community=99", http.StatusBadRequest},              // target out of range
		{"model=m&k=2&community=4294967297", http.StatusBadRequest},      // target id past int32
		{"model=m&k=2&community=+", http.StatusBadRequest},               // malformed target list
		{"model=m&k=2&roots=100", http.StatusBadRequest},                 // roots not a multiple of 64
		{"model=m&k=2&samples=0", http.StatusBadRequest},                 // non-positive samples
		{"model=m&k=2&samples=1000000", http.StatusBadRequest},           // pool over maxSketchSets
		{"model=m&k=2&cond=0>99=1", http.StatusBadRequest},               // cond node out of range
		{"model=m&k=2&cond=4294967296>1=1", http.StatusBadRequest},       // cond id past int32
		{"model=m&k=2&timeout=-1s", http.StatusBadRequest},               // negative deadline
		{"model=nope&k=2", http.StatusNotFound},                          // unknown model
		{"model=certain&k=1&cond=0>1=0", http.StatusUnprocessableEntity}, // p=1 edge, absence required

		// More distinct conditions than a request may carry.
		{"model=m&k=2&cond=" + condList(maxConds+1, 20), http.StatusBadRequest},
	}
	for _, tc := range cases {
		var out map[string]any
		if status := getJSON(t, ts.URL+"/maximize?"+tc.query, &out); status != tc.status {
			t.Errorf("%s: status %d, want %d (%v)", tc.query, status, tc.status, out)
		} else if out["error"] == "" {
			t.Errorf("%s: error payload missing", tc.query)
		}
	}
}

// TestServerMaximizeSeedSensitivity: the seed parameter is part of the
// cache identity — different seeds are distinct computations (and may
// legitimately select different sets on a noisy pool).
func TestServerMaximizeSeedSensitivity(t *testing.T) {
	srv, ts, _ := startServer(t, func(c *Config) {
		c.Models = []Model{{Name: "m", ICM: serveDAG(7, 20, 40)}}
	})
	var a, b maximizeResponse
	if status := getJSON(t, ts.URL+"/maximize?k=2&seed=1", &a); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if status := getJSON(t, ts.URL+"/maximize?k=2&seed=2", &b); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if b.Cached {
		t.Error("distinct seeds must not share a cache entry")
	}
	if got := srv.Metrics().MaximizeRequests.Load(); got != 2 {
		t.Errorf("maximize_requests = %d, want 2", got)
	}
}

// TestMaximizeCacheKeyIsThePool guards the key itself: it names the RR
// pool, so every pool input is part of it and the budget k is not.
func TestMaximizeCacheKeyIsThePool(t *testing.T) {
	base := query{
		model: Model{Name: "m", Digest: "d"}, kind: kindMaximize, k: 2, nodesKey: "1,2", condKey: "0>1=1",
		opts: mh.Options{BurnIn: 1, Thin: 2, Samples: 3}, roots: 64, seed: 1,
	}
	key := base.cacheKey()
	otherK := base
	otherK.k = 7
	if otherK.cacheKey() != key {
		t.Errorf("the budget changes the pool key: %q vs %q", otherK.cacheKey(), key)
	}
	for name, vary := range map[string]func(q *query){
		"model":     func(q *query) { q.model.Digest = "e" },
		"community": func(q *query) { q.nodesKey = "1,3" },
		"cond":      func(q *query) { q.condKey = "0>1=0" },
		"burn-in":   func(q *query) { q.opts.BurnIn++ },
		"thin":      func(q *query) { q.opts.Thin++ },
		"samples":   func(q *query) { q.opts.Samples++ },
		"roots":     func(q *query) { q.roots += 64 },
		"seed":      func(q *query) { q.seed++ },
	} {
		q := base
		vary(&q)
		if q.cacheKey() == key {
			t.Errorf("the pool key ignores the %s", name)
		}
	}
}

// sameSelection fails t unless a served /maximize answer equals the
// library's result for the same pool, every float by its bits.
func sameSelection(t *testing.T, label string, resp maximizeResponse, want *influence.Result, pool *mh.RRPool) {
	t.Helper()
	ok := len(resp.Seeds) == len(want.Seeds) && len(resp.MarginalGains) == len(want.MarginalGains) &&
		math.Float64bits(resp.SpreadEstimate) == math.Float64bits(want.SpreadEstimate) &&
		resp.Universe == pool.Universe && resp.RRSets == pool.NumSets
	for i := 0; ok && i < len(want.Seeds); i++ {
		ok = resp.Seeds[i] == want.Seeds[i] &&
			math.Float64bits(resp.MarginalGains[i]) == math.Float64bits(want.MarginalGains[i])
	}
	if !ok {
		t.Fatalf("%s: served %v %v %v, library %v %v %v", label, resp.Seeds, resp.MarginalGains, resp.SpreadEstimate,
			want.Seeds, want.MarginalGains, want.SpreadEstimate)
	}
}

// TestServerMaximizeBudgetsShareOnePool: the budgets a planner compares
// on one seed build one pool, in any order. Each answer equals
// influence.Maximize at its k, and every answer after the first is
// served from the cached ranking.
func TestServerMaximizeBudgetsShareOnePool(t *testing.T) {
	srv, ts, _ := startServer(t, func(c *Config) {
		c.Models = []Model{{Name: "m", ICM: serveDAG(7, 20, 40)}}
	})
	m := srv.models["m"].ICM
	chain := influence.DefaultSketchOptions(m.NumEdges()).Chain
	opts := influence.SketchOptions{Chain: chain, RootsPerSample: mh.DefaultRootsPerSample}
	for i, tc := range []struct {
		seed    uint64
		budgets []int
	}{{3, []int{20, 5, 10}}, {4, []int{5, 10, 20}}} {
		for j, k := range tc.budgets {
			var resp maximizeResponse
			url := fmt.Sprintf("%s/maximize?k=%d&seed=%d", ts.URL, k, tc.seed)
			if status := getJSON(t, url, &resp); status != http.StatusOK {
				t.Fatalf("%s: status %d", url, status)
			}
			if resp.Cached != (j > 0) {
				t.Errorf("%s: cached = %v, want %v", url, resp.Cached, j > 0)
			}
			want, pool, err := influence.Maximize(m, k, nil, nil, opts, rng.New(tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			sameSelection(t, url, resp, want, pool)
			if got := srv.Metrics().MaximizeSketchSets.Load(); got != int64((i+1)*pool.NumSets) {
				t.Errorf("%s: maximize_rr_sets = %d, want %d (one pool per seed)", url, got, (i+1)*pool.NumSets)
			}
		}
	}
}

// TestServerMaximizeEveryBudget: for every k in [1, n] the served answer
// equals influence.Maximize at the same seed, on the whole graph, on a
// community and under a condition. On the hub fixture the ranking
// saturates after two seeds, so most budgets reach past saturation.
func TestServerMaximizeEveryBudget(t *testing.T) {
	srv, ts, _ := startServer(t, func(c *Config) {
		c.Models = []Model{{Name: "dag", ICM: serveDAG(7, 20, 40)}, {Name: "hub", ICM: hubICM()}}
	})
	for _, tc := range []struct {
		model, extra string
		targets      []graph.NodeID
		conds        []core.FlowCondition
	}{
		{"dag", "", nil, nil},
		{"dag", "&cond=0>19=0", nil, []core.FlowCondition{{Source: 0, Sink: 19}}},
		{"hub", "", nil, nil},
		{"hub", "&community=1,2,3,4,6", []graph.NodeID{1, 2, 3, 4, 6}, nil},
	} {
		m := srv.models[tc.model].ICM
		chain := influence.DefaultSketchOptions(m.NumEdges()).Chain
		opts := influence.SketchOptions{Chain: chain, RootsPerSample: mh.DefaultRootsPerSample}
		for k := 1; k <= m.NumNodes(); k++ {
			var resp maximizeResponse
			url := fmt.Sprintf("%s/maximize?model=%s&k=%d&seed=9%s", ts.URL, tc.model, k, tc.extra)
			if status := getJSON(t, url, &resp); status != http.StatusOK {
				t.Fatalf("%s: status %d", url, status)
			}
			want, pool, err := influence.Maximize(m, k, tc.targets, tc.conds, opts, rng.New(9))
			if err != nil {
				t.Fatal(err)
			}
			sameSelection(t, url, resp, want, pool)
		}
	}
}
