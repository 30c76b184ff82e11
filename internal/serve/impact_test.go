package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
	"infoflow/internal/sizedist"
)

// serveDAG builds a deterministic acyclic model so /impact's analytic
// path is exact.
func serveDAG(seed uint64, nodes, edges int) *core.ICM {
	r := rng.New(seed)
	g := graph.RandomDAG(r, nodes, edges)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 0.2 + 0.6*r.Float64()
	}
	return core.MustNewICM(g, p)
}

// serveWideDAG builds a DAG whose frontier width exceeds the sizedist
// default (one root fanning out to `width` parallel nodes that all feed
// one sink), so the analytic engine is intractable without sampling.
func serveWideDAG(width int) *core.ICM {
	g := graph.New(width + 2)
	for i := 1; i <= width; i++ {
		g.MustAddEdge(0, graph.NodeID(i))
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(width+1))
	}
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 0.5
	}
	return core.MustNewICM(g, p)
}

// TestServerImpactAnalytic: on a DAG, mode=auto serves the exact
// analytic law synchronously — no batch, no chain — and a repeat is a
// cache hit regardless of chain parameters (the analytic cache key
// ignores samples and seed).
func TestServerImpactAnalytic(t *testing.T) {
	srv, ts, _ := startServer(t, func(c *Config) {
		c.Models = []Model{{Name: "m", ICM: serveDAG(7, 20, 40)}}
	})
	var resp impactResponse
	if status := getJSON(t, ts.URL+"/impact?sources=2,5", &resp); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if resp.Mode != "analytic" || !resp.Exact || resp.Cached {
		t.Fatalf("mode/exact/cached = %s/%v/%v, want analytic/true/false", resp.Mode, resp.Exact, resp.Cached)
	}
	want, err := sizedist.Compute(srv.models["m"].ICM, []graph.NodeID{2, 5}, sizedist.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Method != want.Method.String() {
		t.Errorf("method %q, want %q", resp.Method, want.Method)
	}
	if len(resp.Dist) != len(want.Dist) {
		t.Fatalf("dist has %d entries, want %d", len(resp.Dist), len(want.Dist))
	}
	for k := range want.Dist {
		if resp.Dist[k] != want.Dist[k] {
			t.Errorf("dist[%d] = %v, want %v", k, resp.Dist[k], want.Dist[k])
		}
	}
	if resp.Mean != want.Mean() {
		t.Errorf("mean %v, want %v", resp.Mean, want.Mean())
	}
	if got := srv.Metrics().Batches.Load(); got != 0 {
		t.Errorf("analytic request ran %d batches, want 0", got)
	}

	// Repeat with different chain parameters and unsorted duplicate
	// sources: same set, so it must hit the analytic cache.
	var second impactResponse
	if status := getJSON(t, ts.URL+"/impact?sources=5,2,5&samples=999&seed=123", &second); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if !second.Cached || second.Mean != resp.Mean {
		t.Errorf("cached/mean = %v/%v, want true/%v", second.Cached, second.Mean, resp.Mean)
	}
	if got := srv.Metrics().ImpactAnalytic.Load(); got != 2 {
		t.Errorf("ImpactAnalytic = %d, want 2", got)
	}
	if got := srv.Metrics().ImpactRequests.Load(); got != 2 {
		t.Errorf("ImpactRequests = %d, want 2", got)
	}
}

// TestServerImpactSampledBitIdentity: mode=sampled rides the batcher and
// must reproduce the scalar library histogram exactly at the same seed.
func TestServerImpactSampledBitIdentity(t *testing.T) {
	srv, ts, clock := startServer(t, nil)
	var resp impactResponse
	var status int
	done := make(chan struct{})
	go func() {
		defer close(done)
		status = getJSON(t, ts.URL+"/impact?sources=3,1&mode=sampled&samples=150&seed=42", &resp)
	}()
	waitUntil(t, "window collector to arm", func() bool { return clock.Waiters() > 0 })
	clock.Advance(time.Hour)
	<-done
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if resp.Mode != "sampled" || resp.Method != "mh-sampled" || resp.Exact {
		t.Fatalf("mode/method/exact = %s/%s/%v", resp.Mode, resp.Method, resp.Exact)
	}
	m := srv.models["m"].ICM
	opts := mh.DefaultOptions(m.NumEdges())
	opts.Samples = 150
	impacts, err := mh.ImpactDistribution(m, []graph.NodeID{1, 3}, nil, opts, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	want := impactHist(impacts, m.NumNodes()-2+1)
	if len(resp.Dist) != len(want) {
		t.Fatalf("dist has %d entries, want %d", len(resp.Dist), len(want))
	}
	for k := range want {
		if resp.Dist[k] != want[k] {
			t.Errorf("dist[%d] = %v, want %v (must be bit-identical)", k, resp.Dist[k], want[k])
		}
	}
	if resp.BatchSize != 1 || resp.Lanes != 2 {
		t.Errorf("batch/lanes = %d/%d, want 1/2 (one lane per distinct source)", resp.BatchSize, resp.Lanes)
	}

	// The repeat is a sampled-cache hit: no new batch.
	batches := srv.Metrics().Batches.Load()
	var second impactResponse
	if st := getJSON(t, ts.URL+"/impact?sources=1,3&mode=sampled&samples=150&seed=42", &second); st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	if !second.Cached || second.Mean != resp.Mean {
		t.Errorf("cached repeat: cached/mean = %v/%v, want true/%v", second.Cached, second.Mean, resp.Mean)
	}
	if got := srv.Metrics().Batches.Load(); got != batches {
		t.Errorf("cache hit ran a sweep: batches %d -> %d", batches, got)
	}
}

// TestServerImpactAutoFallsBackToSampled: on a cyclic model where the
// analytic engine cannot be exact, mode=auto serves the MH estimate; on
// the same model mode=analytic still answers, labeled inexact.
func TestServerImpactAutoFallsBackToSampled(t *testing.T) {
	srv, ts, clock := startServer(t, nil) // serveICM(3,20,60) is heavily cyclic
	var resp impactResponse
	var status int
	done := make(chan struct{})
	go func() {
		defer close(done)
		status = getJSON(t, ts.URL+"/impact?sources=0&samples=80&seed=5", &resp)
	}()
	waitUntil(t, "window collector to arm", func() bool { return clock.Waiters() > 0 })
	clock.Advance(time.Hour)
	<-done
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if resp.Mode != "sampled" {
		t.Fatalf("mode %q, want sampled fallback on a cyclic model", resp.Mode)
	}
	if got := srv.Metrics().ImpactSampled.Load(); got != 1 {
		t.Errorf("ImpactSampled = %d, want 1", got)
	}

	var analytic impactResponse
	if st := getJSON(t, ts.URL+"/impact?sources=0&mode=analytic", &analytic); st != http.StatusOK {
		t.Fatalf("mode=analytic status %d", st)
	}
	if analytic.Exact {
		t.Error("analytic answer on a loop-heavy cyclic model claims exactness")
	}
	if analytic.Method == "" || analytic.Method == "mh-sampled" {
		t.Errorf("analytic method label %q", analytic.Method)
	}
}

// TestServerImpactAnalyticIntractable: past the frontier-width budget
// with no sampling allowed, mode=analytic is 422; mode=auto on the same
// model quietly samples.
func TestServerImpactAnalyticIntractable(t *testing.T) {
	_, ts, clock := startServer(t, func(c *Config) {
		c.Models = []Model{{Name: "m", ICM: serveWideDAG(20)}}
	})
	var errResp map[string]string
	if status := getJSON(t, ts.URL+"/impact?sources=0&mode=analytic", &errResp); status != http.StatusUnprocessableEntity {
		t.Fatalf("mode=analytic status %d, want 422", status)
	}
	var resp impactResponse
	var status int
	done := make(chan struct{})
	go func() {
		defer close(done)
		status = getJSON(t, ts.URL+"/impact?sources=0&samples=60", &resp)
	}()
	waitUntil(t, "window collector to arm", func() bool { return clock.Waiters() > 0 })
	clock.Advance(time.Hour)
	<-done
	if status != http.StatusOK || resp.Mode != "sampled" {
		t.Fatalf("auto fallback: status/mode = %d/%q, want 200/sampled", status, resp.Mode)
	}
}

// TestServerImpactBurstCoalesces: concurrent sampled impact queries with
// distinct source sets share one chain sweep, one lane per distinct
// source. 32 two-source sets exactly fill a 64-lane budget, so the batch
// flushes lane-full — the never-advancing fake clock proves the window
// played no part.
func TestServerImpactBurstCoalesces(t *testing.T) {
	srv, ts, _ := startServer(t, func(c *Config) {
		c.DefaultSamples = 50
		c.LaneBudget = mh.LaneWidth
	})
	const reqs = 32
	var wg sync.WaitGroup
	codes := make([]int, reqs)
	resps := make([]impactResponse, reqs)
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct sets: {u, u+1 mod 20} for i < 20, {u, u+2 mod 20}
			// after — cyclic distances 1 and 2 never collide as sets.
			u := i % 20
			v := (u + 1 + i/20) % 20
			url := fmt.Sprintf("%s/impact?mode=sampled&sources=%d,%d", ts.URL, u, v)
			codes[i] = getJSON(t, url, &resps[i])
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	if got := srv.Metrics().Batches.Load(); got != 1 {
		t.Errorf("Batches = %d, want 1 (lane-full flush)", got)
	}
	if got := srv.Metrics().BatchedRequests.Load(); got != reqs {
		t.Errorf("BatchedRequests = %d, want %d", got, reqs)
	}
	if got := srv.Metrics().BatchedLanes.Load(); got != 2*reqs {
		t.Errorf("BatchedLanes = %d, want %d (one per distinct source)", got, 2*reqs)
	}
	for i, r := range resps {
		if r.BatchSize != reqs || r.Lanes != 2*reqs {
			t.Errorf("request %d: batch/lanes = %d/%d, want %d/%d", i, r.BatchSize, r.Lanes, reqs, 2*reqs)
		}
	}
}

// TestServerImpactBadRequests exercises the /impact parser's rejection
// paths.
func TestServerImpactBadRequests(t *testing.T) {
	_, ts, _ := startServer(t, nil)
	cases := []struct {
		name, query string
		status      int
	}{
		{"missing sources", "/impact", http.StatusBadRequest},
		{"empty sources", "/impact?sources=", http.StatusBadRequest},
		{"garbage sources", "/impact?sources=1,x", http.StatusBadRequest},
		{"negative source", "/impact?sources=-2", http.StatusBadRequest},
		{"out of range", "/impact?sources=99", http.StatusBadRequest},
		{"past int32", "/impact?sources=4294967297", http.StatusBadRequest},
		{"cond past int32", "/impact?sources=0&cond=4294967296>5=1", http.StatusBadRequest},
		{"bad mode", "/impact?sources=0&mode=psychic", http.StatusBadRequest},
		{"analytic with cond", "/impact?sources=0&mode=analytic&cond=1>2=1", http.StatusBadRequest},
		{"bad samples", "/impact?sources=0&samples=0", http.StatusBadRequest},
	}
	for _, tc := range cases {
		var resp map[string]string
		if status := getJSON(t, ts.URL+tc.query, &resp); status != tc.status {
			t.Errorf("%s: status %d, want %d (error %q)", tc.name, status, tc.status, resp["error"])
		}
	}
}

// serveStar is a forest whose size laws have a zero tail: hub 0 feeds
// 1..3 at p = 0.5 and nodes 4..11 are isolated, so the law of {0} spans
// 12 impacts with support on the first 4.
func serveStar() *core.ICM {
	g := graph.New(12)
	for v := 1; v <= 3; v++ {
		g.MustAddEdge(0, graph.NodeID(v))
	}
	return core.MustNewICM(g, []float64{0.5, 0.5, 0.5})
}

// serveDirect runs one request through the server's handler in the
// calling goroutine and returns the recorded response.
func serveDirect(s *Server, url string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec
}

// serveBatched runs a request that joins a batch: it waits for the
// window collector to arm, then fires the window.
func serveBatched(t *testing.T, s *Server, clock *fakeClock, url string) *httptest.ResponseRecorder {
	t.Helper()
	var rec *httptest.ResponseRecorder
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec = serveDirect(s, url)
	}()
	waitUntil(t, "window collector to arm", func() bool { return clock.Waiters() > 0 })
	clock.Advance(time.Hour)
	<-done
	return rec
}

// sameCachedBodies fails t unless a cache hit's body matches the miss's
// byte for byte in every field but cached and the batch
// fields, which describe a batch the hit did not run.
func sameCachedBodies(t *testing.T, label string, miss, hit []byte) {
	t.Helper()
	var a, b map[string]json.RawMessage
	if err := json.Unmarshal(miss, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(hit, &b); err != nil {
		t.Fatal(err)
	}
	if string(b["cached"]) != "true" {
		t.Fatalf("%s: repeat is not a cache hit: %s", label, hit)
	}
	for _, k := range []string{"cached", "batch_size", "lanes", "acceptance_rate"} {
		delete(a, k)
		delete(b, k)
	}
	if len(a) != len(b) {
		t.Fatalf("%s: fields differ:\nmiss %s\nhit  %s", label, miss, hit)
	}
	for k, v := range a {
		if !bytes.Equal(v, b[k]) {
			t.Errorf("%s: %s differs:\nmiss %s\nhit  %s", label, k, v, b[k])
		}
	}
}

// TestServerImpactCachedBodyIdentical: cached /impact laws keep only
// their support, and a hit pads it back to the body the miss returned,
// for analytic and sampled entries alike.
func TestServerImpactCachedBodyIdentical(t *testing.T) {
	srv, _, clock := startServer(t, func(c *Config) {
		c.Models = []Model{{Name: "m", ICM: serveStar()}}
	})
	const analytic, sampled = "/impact?sources=0", "/impact?sources=0&mode=sampled&samples=200&seed=3"
	miss := serveDirect(srv, analytic)
	if miss.Code != http.StatusOK {
		t.Fatalf("analytic status %d: %s", miss.Code, miss.Body)
	}
	sameCachedBodies(t, "analytic", miss.Body.Bytes(), serveDirect(srv, analytic).Body.Bytes())
	miss = serveBatched(t, srv, clock, sampled)
	if miss.Code != http.StatusOK {
		t.Fatalf("sampled status %d: %s", miss.Code, miss.Body)
	}
	sameCachedBodies(t, "sampled", miss.Body.Bytes(), serveDirect(srv, sampled).Body.Bytes())

	laws := 0
	srv.cache.mu.Lock()
	defer srv.cache.mu.Unlock()
	for key, el := range srv.cache.items {
		law, ok := el.Value.(*lruEntry).val.(sizeLaw)
		if a, isAnalytic := el.Value.(*lruEntry).val.(impactAnalytic); isAnalytic {
			law, ok = a.law, true
		}
		if !ok {
			continue
		}
		laws++
		if law.length != 12 || len(law.support) != 4 || cap(law.support) != 4 {
			t.Errorf("%s: cached support %d (cap %d) of %d entries, want the 4 nonzero of 12",
				key, len(law.support), cap(law.support), law.length)
		}
	}
	if laws != 2 {
		t.Errorf("%d cached laws, want the analytic and the sampled one", laws)
	}
}
