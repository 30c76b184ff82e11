package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"infoflow/internal/graph"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
)

// startServer builds a Server over a fake clock and mounts it on an
// httptest server. The fake clock never advances on its own, so batches
// flush only on lane-full, explicit Advance, or Drain.
func startServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	cfg := Config{
		Models:         []Model{{Name: "m", ICM: serveICM(3, 20, 60)}},
		Window:         time.Hour,
		Workers:        2,
		QueueCap:       8,
		DefaultSamples: 100,
		DefaultTimeout: 10 * time.Second,
		Clock:          clock,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts, clock
}

func getJSON(t *testing.T, url string, out any) (status int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding response: %v", url, err)
	}
	return resp.StatusCode
}

// TestServerBurstCoalesces is the headline acceptance check: 64
// concurrent same-model /flow requests (distinct pairs) against a
// 64-lane budget must be served by one lane-full sweep — the occupancy
// metric proves the coalescing. (TestServerLaneBudget covers bursts
// beyond 64 lanes.)
func TestServerBurstCoalesces(t *testing.T) {
	srv, ts, _ := startServer(t, func(c *Config) {
		c.Models = []Model{{Name: "m", ICM: serveICM(5, 70, 200)}}
		c.DefaultSamples = 50
		c.LaneBudget = mh.LaneWidth
	})
	var wg sync.WaitGroup
	resps := make([]flowResponse, mh.LaneWidth)
	codes := make([]int, mh.LaneWidth)
	for i := 0; i < mh.LaneWidth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/flow?source=%d&sink=%d", ts.URL, i%8, 10+i/8)
			codes[i] = getJSON(t, url, &resps[i])
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	met := srv.Metrics()
	if got := met.Batches.Load(); got > 2 {
		t.Errorf("burst of %d requests took %d sweeps, want <= 2", mh.LaneWidth, got)
	}
	if got := met.BatchedRequests.Load(); got != mh.LaneWidth {
		t.Errorf("BatchedRequests = %d, want %d", got, mh.LaneWidth)
	}
	if occ := met.Occupancy(); occ < mh.LaneWidth/2 {
		t.Errorf("batch occupancy = %.1f, want >= %d", occ, mh.LaneWidth/2)
	}
	// Co-batched answers must still equal scalar FlowProb (spot-check —
	// the full 64-way identity is covered at the batcher layer).
	m := srv.models["m"].ICM
	opts := mh.DefaultOptions(m.NumEdges())
	opts.Samples = 50
	for _, i := range []int{0, 17, 42, 63} {
		want, err := mh.FlowProb(m, graph.NodeID(resps[i].Source), graph.NodeID(resps[i].Sink), nil, opts, rng.New(srv.cfg.DefaultSeed))
		if err != nil {
			t.Fatal(err)
		}
		if resps[i].Prob != want {
			t.Errorf("request %d: prob %v != scalar %v", i, resps[i].Prob, want)
		}
	}
}

// TestServerFlowBitIdentity: one /flow request through the full HTTP
// path equals scalar mh.FlowProb bit-for-bit.
func TestServerFlowBitIdentity(t *testing.T) {
	srv, ts, clock := startServer(t, nil)
	var resp flowResponse
	var status int
	done := make(chan struct{})
	go func() {
		defer close(done)
		status = getJSON(t, ts.URL+"/flow?source=2&sink=9&samples=150&seed=42", &resp)
	}()
	waitUntil(t, "window collector to arm", func() bool { return clock.Waiters() > 0 })
	clock.Advance(time.Hour)
	<-done
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	m := srv.models["m"].ICM
	opts := mh.DefaultOptions(m.NumEdges())
	opts.Samples = 150
	want, err := mh.FlowProb(m, 2, 9, nil, opts, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Prob != want {
		t.Errorf("served prob %v != mh.FlowProb %v (must be bit-identical)", resp.Prob, want)
	}
	if resp.Cached || resp.BatchSize != 1 || resp.Lanes != 1 {
		t.Errorf("cached/batch/lanes = %v/%d/%d, want false/1/1", resp.Cached, resp.BatchSize, resp.Lanes)
	}
}

// TestServerCacheHit: repeating a query is served from cache with the
// identical probability and no new sweep.
func TestServerCacheHit(t *testing.T) {
	srv, ts, clock := startServer(t, nil)
	url := ts.URL + "/flow?source=1&sink=7&samples=80&seed=5"
	var first flowResponse
	done := make(chan struct{})
	go func() {
		defer close(done)
		getJSON(t, url, &first)
	}()
	waitUntil(t, "window collector to arm", func() bool { return clock.Waiters() > 0 })
	clock.Advance(time.Hour)
	<-done

	batches := srv.Metrics().Batches.Load()
	var second flowResponse
	if status := getJSON(t, url, &second); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if !second.Cached {
		t.Error("second identical query not served from cache")
	}
	if second.Prob != first.Prob {
		t.Errorf("cached prob %v != fresh prob %v", second.Prob, first.Prob)
	}
	if got := srv.Metrics().Batches.Load(); got != batches {
		t.Errorf("cache hit ran a sweep: batches %d -> %d", batches, got)
	}
	if hits := srv.Metrics().CacheHits.Load(); hits != 1 {
		t.Errorf("CacheHits = %d, want 1", hits)
	}
}

// TestServerCommunity: a /community response matches the library's
// community estimator and respects ?top=.
func TestServerCommunity(t *testing.T) {
	srv, ts, clock := startServer(t, nil)
	var resp communityResponse
	var status int
	done := make(chan struct{})
	go func() {
		defer close(done)
		status = getJSON(t, ts.URL+"/community?source=4&samples=120&seed=9&top=5", &resp)
	}()
	waitUntil(t, "window collector to arm", func() bool { return clock.Waiters() > 0 })
	clock.Advance(time.Hour)
	<-done
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	m := srv.models["m"].ICM
	opts := mh.DefaultOptions(m.NumEdges())
	opts.Samples = 120
	probs, err := mh.CommunityFlowProbs(m, 4, nil, opts, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	want := topFlows(probs, 4, 5)
	if len(resp.Top) != len(want) {
		t.Fatalf("top has %d entries, want %d", len(resp.Top), len(want))
	}
	for i := range want {
		if resp.Top[i] != want[i] {
			t.Errorf("top[%d] = %+v, want %+v", i, resp.Top[i], want[i])
		}
	}
}

// TestServerTimeout: a request whose deadline passes before its batch
// flushes gets 504 and counts toward the timeout metric.
func TestServerTimeout(t *testing.T) {
	srv, ts, _ := startServer(t, nil) // window never fires: the batch cannot flush
	var resp map[string]string
	status := getJSON(t, ts.URL+"/flow?source=0&sink=1&timeout=30ms", &resp)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", status)
	}
	if got := srv.Metrics().Timeouts.Load(); got != 1 {
		t.Errorf("Timeouts = %d, want 1", got)
	}
}

// TestServerDrain: after Drain, queries and health checks report the
// server as unavailable.
func TestServerDrain(t *testing.T) {
	_, ts, _ := startServer(t, nil)
	var ok map[string]string
	if status := getJSON(t, ts.URL+"/healthz", &ok); status != http.StatusOK || ok["status"] != "ok" {
		t.Fatalf("healthz before drain: %d %v", status, ok)
	}
	// Drain via the same path the SIGTERM handler uses.
	srv2, ts2, _ := startServer(t, nil)
	srv2.Drain()
	var resp map[string]string
	if status := getJSON(t, ts2.URL+"/healthz", &resp); status != http.StatusServiceUnavailable || resp["status"] != "draining" {
		t.Errorf("healthz after drain: %d %v, want 503 draining", status, resp)
	}
	if status := getJSON(t, ts2.URL+"/flow?source=0&sink=1", &resp); status != http.StatusServiceUnavailable {
		t.Errorf("flow after drain: %d, want 503", status)
	}
}

// TestServerBadRequests: parse and validation failures map to the right
// status codes.
func TestServerBadRequests(t *testing.T) {
	_, ts, _ := startServer(t, func(c *Config) { c.MaxSamples = 1000 })
	cases := []struct {
		path string
		want int
	}{
		{"/flow?sink=1", http.StatusBadRequest},                         // missing source
		{"/flow?source=0", http.StatusBadRequest},                       // missing sink
		{"/flow?source=0&sink=99", http.StatusBadRequest},               // sink out of range
		{"/flow?source=-1&sink=1", http.StatusBadRequest},               // negative source
		{"/flow?source=0&sink=1&model=nope", http.StatusNotFound},       // unknown model
		{"/flow?source=0&sink=1&samples=100000", http.StatusBadRequest}, // over MaxSamples
		{"/flow?source=0&sink=1&samples=0", http.StatusBadRequest},
		{"/flow?source=0&sink=1&cond=3-7", http.StatusBadRequest},    // malformed condition
		{"/flow?source=0&sink=1&cond=3>99=1", http.StatusBadRequest}, // condition out of range
		{"/flow?source=0&sink=1&timeout=-1s", http.StatusBadRequest},
		{"/community?top=5", http.StatusBadRequest},           // missing source
		{"/community?source=0&top=-2", http.StatusBadRequest}, // bad top
	}
	for _, tc := range cases {
		var resp map[string]string
		if status := getJSON(t, ts.URL+tc.path, &resp); status != tc.want {
			t.Errorf("GET %s: status %d, want %d (%v)", tc.path, status, tc.want, resp)
		}
	}
}

// TestServerCondCanonicalisation: condition order must not split the
// cache — "a,b" and "b,a" are one cache line.
func TestServerCondCanonicalisation(t *testing.T) {
	srv, ts, clock := startServer(t, nil)
	var first flowResponse
	done := make(chan struct{})
	go func() {
		defer close(done)
		getJSON(t, ts.URL+"/flow?source=0&sink=9&cond=1>2=1,3>4=0", &first)
	}()
	waitUntil(t, "window collector to arm", func() bool { return clock.Waiters() > 0 })
	clock.Advance(time.Hour)
	<-done
	var second flowResponse
	if status := getJSON(t, ts.URL+"/flow?source=0&sink=9&cond=3>4=0,1>2=1", &second); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if !second.Cached || second.Prob != first.Prob {
		t.Errorf("reordered conditions missed the cache (cached=%v, %v vs %v)", second.Cached, second.Prob, first.Prob)
	}
	if srv.Metrics().CacheHits.Load() != 1 {
		t.Errorf("CacheHits = %d, want 1", srv.Metrics().CacheHits.Load())
	}
}

// TestServerMetricsEndpoint: /metrics exposes the flowserve expvar with
// the advertised gauges.
func TestServerMetricsEndpoint(t *testing.T) {
	_, ts, _ := startServer(t, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	raw, ok := payload["flowserve"]
	if !ok {
		t.Fatal("expvar payload has no flowserve entry")
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"batch_occupancy", "cache_hit_rate", "queue_depth", "acceptance_rate", "lane_budget", "lane_utilization"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("flowserve expvar missing %q", k)
		}
	}
}

// TestServerLaneBudgetRounding pins the Config.LaneBudget normalisation:
// default 512, round up to a multiple of 64, cap at mh.MaxLanes.
func TestServerLaneBudgetRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 512},
		{-3, 512},
		{64, 64},
		{100, 128},
		{512, 512},
		{mh.MaxLanes + 1, mh.MaxLanes},
		{1 << 20, mh.MaxLanes},
	} {
		srv, err := NewServer(Config{
			Models:     []Model{{Name: "m", ICM: serveICM(3, 20, 60)}},
			LaneBudget: tc.in,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := srv.cfg.LaneBudget; got != tc.want {
			t.Errorf("LaneBudget %d normalised to %d, want %d", tc.in, got, tc.want)
		}
		if got := srv.Metrics().LaneBudget(); got != tc.want {
			t.Errorf("Metrics().LaneBudget() after config %d = %d, want %d", tc.in, got, tc.want)
		}
		srv.Drain()
	}
}

// TestServerLaneBudgetBurst: a burst wider than one 64-lane word (130
// distinct pairs against a 128-lane budget) coalesces into at most two
// wide sweeps — one lane-full flush at the budget plus the drain-time
// remainder — and lane utilization reflects the fill against the
// budget, not against 64.
func TestServerLaneBudgetBurst(t *testing.T) {
	const budget = 2 * mh.LaneWidth
	srv, ts, _ := startServer(t, func(c *Config) {
		c.Models = []Model{{Name: "m", ICM: serveICM(5, 200, 600)}}
		c.DefaultSamples = 30
		c.LaneBudget = budget
		c.Workers = 4
	})
	var wg sync.WaitGroup
	codes := make([]int, budget)
	for i := 0; i < budget; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp flowResponse
			url := fmt.Sprintf("%s/flow?source=%d&sink=%d", ts.URL, i%16, 20+i/16)
			codes[i] = getJSON(t, url, &resp)
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	met := srv.Metrics()
	if got := met.Batches.Load(); got != 1 {
		t.Errorf("burst of %d distinct pairs took %d sweeps, want 1 (budget %d)", budget, got, budget)
	}
	if got := met.BatchedLanes.Load(); got != budget {
		t.Errorf("BatchedLanes = %d, want %d", got, budget)
	}
	if util := met.LaneUtilization(); util != 1.0 {
		t.Errorf("lane utilization = %v, want 1.0 for a lane-full flush", util)
	}
}

// TestServerPprof: the pprof index is mounted.
func TestServerPprof(t *testing.T) {
	_, ts, _ := startServer(t, nil)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d", resp.StatusCode)
	}
}

// TestParseCondsRejectsGarbage exercises the exported parser directly.
func TestParseCondsRejectsGarbage(t *testing.T) {
	good, err := ParseConds(" 3>7=1 , 3>9=0 ")
	if err != nil || len(good) != 2 || !good[0].Require || good[1].Require {
		t.Fatalf("ParseConds = %+v, %v", good, err)
	}
	for _, bad := range []string{"3>7", "3-7=1", "a>b=1", "3>7=2", ">=1"} {
		if _, err := ParseConds(bad); err == nil {
			t.Errorf("ParseConds(%q) accepted garbage", bad)
		}
	}
	if got, err := ParseConds(""); err != nil || got != nil {
		t.Errorf("ParseConds(\"\") = %v, %v; want nil, nil", got, err)
	}
}
