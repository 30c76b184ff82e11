package serve

import (
	"fmt"
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
	chain := mh.DefaultOptions(m.NumEdges())
	chain.Samples = srv.cfg.DefaultSketchSamples
	want, pool, err := influence.Maximize(m, 3, nil, nil,
		influence.SketchOptions{Chain: chain, RootsPerSample: mh.DefaultRootsPerSample}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Seeds) != len(want.Seeds) {
		t.Fatalf("%d seeds, want %d", len(resp.Seeds), len(want.Seeds))
	}
	for i := range want.Seeds {
		if resp.Seeds[i] != int(want.Seeds[i]) || resp.MarginalGains[i] != want.MarginalGains[i] {
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
		{"model=m&k=2&samples=1000000", http.StatusBadRequest},           // pool over MaxSketchSets
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
	// Guard the key itself, not just behaviour: every varying parameter
	// must appear in the canonical identity.
	q1 := &maximizeQuery{model: srv.models["m"], k: 2, chain: mh.Options{BurnIn: 1, Thin: 2, Samples: 3}, roots: 64, seed: 1}
	q2 := &maximizeQuery{model: srv.models["m"], k: 2, chain: mh.Options{BurnIn: 1, Thin: 2, Samples: 3}, roots: 64, seed: 2}
	if q1.cacheKey() == q2.cacheKey() {
		t.Error("cache key ignores the seed")
	}
	if fmt.Sprint(q1.cacheKey()) == "" {
		t.Error("empty cache key")
	}
}
