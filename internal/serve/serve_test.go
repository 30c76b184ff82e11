package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"infoflow/internal/core"
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
// 64-lane budget must be served by one lane-full batch — the occupancy
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
	waitUntil(t, "the batch window to arm", func() bool { return clock.Waiters() > 0 })
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
	waitUntil(t, "the batch window to arm", func() bool { return clock.Waiters() > 0 })
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
	waitUntil(t, "the batch window to arm", func() bool { return clock.Waiters() > 0 })
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
	want := newCommunityLaw(probs).top(4, 5)
	if len(resp.Top) != len(want) {
		t.Fatalf("top has %d entries, want %d", len(resp.Top), len(want))
	}
	for i := range want {
		if resp.Top[i] != want[i] {
			t.Errorf("top[%d] = %+v, want %+v", i, resp.Top[i], want[i])
		}
	}
}

// refTopCommunity is the vector ranking communityLaw.top replaced:
// scan the whole vector for positive entries, then sort them.
func refTopCommunity(probs []float64, source graph.NodeID, top int) []graph.NodeID {
	out := make([]graph.NodeID, 0, min(top, len(probs)))
	for v, p := range probs {
		if graph.NodeID(v) != source && p > 0 {
			out = append(out, graph.NodeID(v))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		//flowlint:ignore floatcmp -- sort tiebreak: both probabilities are k/Samples quotients from the same chain, equal iff their hit counts are; no rounding tolerance is meaningful here
		if pi, pj := probs[out[i]], probs[out[j]]; pi != pj {
			return pi > pj
		}
		return out[i] < out[j]
	})
	if len(out) > top {
		out = out[:top]
	}
	return out
}

// TestTopCommunityMatchesVectorRanking: ranking a community from its
// support (communityLaw.top) lists the same nodes with the same
// probabilities as the ranking of the full vector it replaced, on
// random vectors with many ties and zeros, the source inside and
// outside the support, and every cut from 1 past the support's size.
func TestTopCommunityMatchesVectorRanking(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(60)
		samples := 1 + r.Intn(8) // few distinct quotients: many ties
		probs := make([]float64, n)
		for v := range probs {
			if r.Intn(3) > 0 {
				probs[v] = float64(r.Intn(samples+1)) / float64(samples)
			}
		}
		source := graph.NodeID(r.Intn(n))
		if trial%2 == 0 {
			probs[source] = 1
		}
		law := newCommunityLaw(probs)
		for top := 1; top <= n+1; top++ {
			want := refTopCommunity(probs, source, top)
			entries := law.top(source, top)
			if len(entries) != len(want) {
				t.Fatalf("trial %d top %d: %d entries, want %d", trial, top, len(entries), len(want))
			}
			for i, e := range entries {
				if graph.NodeID(e.Node) != want[i] || math.Float64bits(e.Prob) != math.Float64bits(probs[want[i]]) {
					t.Fatalf("trial %d top %d: entry %d is %+v, want node %d prob %v", trial, top, i, e, want[i], probs[want[i]])
				}
			}
		}
	}
}

// TestServerCommunityCachedBodyIdentical: a cached /community answer
// keeps only its support, and a hit ranks it into the body the miss
// returned, for top 1, 10, the support's size and n, with and without
// a condition. Each (top, cond) asks its own seed, so its first request
// is the miss.
func TestServerCommunityCachedBodyIdentical(t *testing.T) {
	srv, _, clock := startServer(t, nil)
	m := srv.models["m"].ICM
	n := m.NumNodes()
	const source = 4
	for ci, cond := range []string{"", "0>5=1"} {
		conds, condKey, err := ParseConds(cond, n)
		if err != nil {
			t.Fatal(err)
		}
		for ti, top := range []func(support int) int{
			func(int) int { return 1 },
			func(int) int { return 10 },
			func(support int) int { return support },
			func(int) int { return n },
		} {
			seed := uint64(10*ci + ti + 1)
			opts := mh.DefaultOptions(m.NumEdges())
			opts.Samples = 90
			probs, err := mh.CommunityFlowProbs(m, source, conds, opts, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			support := 0
			for _, p := range probs {
				if p > 0 {
					support++
				}
			}
			url := fmt.Sprintf("/community?source=%d&samples=90&seed=%d&top=%d&cond=%s", source, seed, top(support), cond)
			miss := serveBatched(t, srv, clock, url)
			if miss.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", url, miss.Code, miss.Body)
			}
			sameCachedBodies(t, url, miss.Body.Bytes(), serveDirect(srv, url).Body.Bytes())

			q := query{model: srv.models["m"], kind: kindCommunity, source: source, conds: conds, condKey: condKey, opts: opts, seed: seed}
			v, ok := srv.cache.Get(q.appendCacheKey(nil))
			if !ok {
				t.Fatalf("%s: no cache entry", url)
			}
			if law := v.(communityLaw); len(law.nodes) != support || cap(law.probs) != support || law.n != n {
				t.Errorf("%s: cached %d nodes (cap %d) of %d, want the %d in the support of %d",
					url, len(law.nodes), cap(law.probs), law.n, support, n)
			}
		}
	}
}

// TestServerNoCacheKeepsNoStart: CacheSize < 0 turns chain starts off
// along with the result cache, so every batch builds its own chain.
func TestServerNoCacheKeepsNoStart(t *testing.T) {
	srv, _, clock := startServer(t, func(c *Config) { c.CacheSize = -1 })
	const url = "/flow?source=0&sink=5&samples=30&seed=4"
	first := serveBatched(t, srv, clock, url)
	second := serveBatched(t, srv, clock, url)
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("status %d, %d", first.Code, second.Code)
	}
	met := srv.Metrics()
	if h, m, b := met.StartHits.Load(), met.StartMisses.Load(), met.StartBytes(); h != 0 || m != 2 || b != 0 {
		t.Errorf("start hits/misses/bytes = %d/%d/%d, want 0/2/0", h, m, b)
	}
}

// TestServerCommunityHugeTop: a ?top= far beyond the node count is
// answered, uncached and then from the cache, with at most n-1 entries
// (every node but the source) instead of sizing a buffer by top, which
// ended the process with an out-of-memory fatal error.
func TestServerCommunityHugeTop(t *testing.T) {
	srv, ts, clock := startServer(t, nil)
	url := ts.URL + "/community?source=0&samples=60&seed=3&top=100000000000"
	var first communityResponse
	var status int
	done := make(chan struct{})
	go func() {
		defer close(done)
		status = getJSON(t, url, &first)
	}()
	waitUntil(t, "the batch window to arm", func() bool { return clock.Waiters() > 0 })
	clock.Advance(time.Hour)
	<-done
	n := srv.models["m"].ICM.NumNodes()
	if status != http.StatusOK || first.Cached || len(first.Top) == 0 || len(first.Top) > n-1 {
		t.Fatalf("uncached: status %d, cached %v, %d entries (n = %d)", status, first.Cached, len(first.Top), n)
	}
	var second communityResponse
	status = getJSON(t, url, &second)
	if status != http.StatusOK || !second.Cached || len(second.Top) != len(first.Top) {
		t.Fatalf("cached: status %d, cached %v, %d entries, want %d", status, second.Cached, len(second.Top), len(first.Top))
	}
	for i := range first.Top {
		if second.Top[i] != first.Top[i] {
			t.Errorf("cached top[%d] = %+v, uncached %+v", i, second.Top[i], first.Top[i])
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
	for _, path := range []string{
		"/flow?source=0&sink=1",
		"/community?source=0",
		"/impact?sources=0&mode=sampled",
		"/impact?sources=0&mode=analytic",
		"/impact?sources=0",
		"/maximize?k=1&samples=1&roots=64",
	} {
		var body map[string]any
		if status := getJSON(t, ts2.URL+path, &body); status != http.StatusServiceUnavailable {
			t.Errorf("%s after drain: %d, want 503", path, status)
		}
	}
}

// TestServerDrainCountsRejected: every 503 a draining server gives a
// request that would compute counts toward Rejected, whether the
// batcher refuses its join (/flow) or the handler refuses to compute
// (/maximize, analytic /impact), while cached answers are still served
// and count as nothing of the kind.
func TestServerDrainCountsRejected(t *testing.T) {
	srv, _, _ := startServer(t, func(c *Config) {
		c.Models = []Model{{Name: "dag", ICM: serveDAG(7, 20, 40)}}
		c.Clock, c.Window = RealClock(), time.Millisecond
	})
	cached := []string{
		"/flow?source=2&sink=9&samples=40",
		"/maximize?k=2&samples=2&roots=64",
		"/impact?sources=2,5",
	}
	for _, url := range cached {
		if rec := serveDirect(srv, url); rec.Code != http.StatusOK {
			t.Fatalf("%s before the drain: status %d: %s", url, rec.Code, rec.Body)
		}
	}
	srv.Drain()
	for _, url := range cached {
		if rec := serveDirect(srv, url); rec.Code != http.StatusOK {
			t.Errorf("%s after the drain: status %d, want 200 from the cache", url, rec.Code)
		}
	}
	if got := srv.Metrics().Rejected.Load(); got != 0 {
		t.Fatalf("Rejected = %d after serving cached answers, want 0", got)
	}
	for _, url := range []string{
		"/flow?source=3&sink=9&samples=40",
		"/maximize?k=2&samples=3&roots=64",
		"/impact?sources=3&mode=analytic",
	} {
		if rec := serveDirect(srv, url); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s after the drain: status %d, want 503", url, rec.Code)
		}
	}
	if got := srv.Metrics().Rejected.Load(); got != 3 {
		t.Errorf("Rejected = %d, want 3 (one per refused request)", got)
	}
}

// TestServerDrainLeavesNoGoroutines: on the wall clock, a burst that
// flushes batches both lane-full and on the window, then a drain, leaves
// no goroutine running: the workers have exited and no window timer is
// left to fire. Run under -race.
func TestServerDrainLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, err := NewServer(Config{
		Models:     []Model{{Name: "m", ICM: serveICM(5, 70, 200)}},
		Window:     time.Millisecond,
		LaneBudget: 8,
		Workers:    2,
		QueueCap:   16,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 20 distinct queries on one key fill two 8-lane batches; the last 4
	// flush on the window.
	var wg sync.WaitGroup
	codes := make([]int, 20)
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = serveDirect(srv, fmt.Sprintf("/flow?source=%d&sink=%d&samples=20", i%10, 10+i/10)).Code
		}()
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d: status %d", i, code)
		}
	}
	if got := srv.Metrics().Batches.Load(); got < 3 {
		t.Errorf("Batches = %d, want at least 3 (two lane-full, one on the window)", got)
	}
	srv.Drain()
	waitUntil(t, "the goroutine count to return to its baseline", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
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
		{"/flow?source=0&sink=1&cond=3-7", http.StatusBadRequest},            // malformed condition
		{"/flow?source=0&sink=1&cond=3>99=1", http.StatusBadRequest},         // condition out of range
		{"/flow?source=0&sink=1&cond=4294967296>5=1", http.StatusBadRequest}, // id past int32
		{"/flow?source=4294967296&sink=1", http.StatusBadRequest},            // source past int32
		{"/flow?source=0&sink=1&timeout=-1s", http.StatusBadRequest},
		{"/community?top=5", http.StatusBadRequest},           // missing source
		{"/community?source=0&top=-2", http.StatusBadRequest}, // bad top

		// More distinct conditions than a request may carry.
		{"/flow?source=0&sink=1&cond=" + condList(maxConds+1, 20), http.StatusBadRequest},
		{"/community?source=0&cond=" + condList(maxConds+1, 20), http.StatusBadRequest},
		{"/impact?sources=0&mode=sampled&cond=" + condList(maxConds+1, 20), http.StatusBadRequest},
	}
	for _, tc := range cases {
		var resp map[string]string
		if status := getJSON(t, ts.URL+tc.path, &resp); status != tc.want {
			t.Errorf("GET %s: status %d, want %d (%v)", tc.path, status, tc.want, resp)
		}
	}
}

// condList renders the first k distinct forbidden flows u>v=0 over
// nodes [0, n), self-flows skipped, in row-major order of (u, v).
func condList(k, n int) string {
	parts := make([]string, 0, k)
	for u := 0; u < n && len(parts) < k; u++ {
		for v := 0; v < n && len(parts) < k; v++ {
			if u != v {
				parts = append(parts, fmt.Sprintf("%d>%d=0", u, v))
			}
		}
	}
	return strings.Join(parts, ",")
}

// TestNewServerRefusesDigestWithPipe: the digest is a cache key field,
// and a key names one query only while no field but the node list can
// hold a '|' (see appendCacheKey), so NewServer refuses such a digest.
func TestNewServerRefusesDigestWithPipe(t *testing.T) {
	srv, err := NewServer(Config{Models: []Model{{Name: "m", ICM: serveICM(3, 20, 60), Digest: "d|3"}}})
	if err == nil {
		srv.Drain()
		t.Fatal("NewServer accepted the digest \"d|3\"")
	}
	if !strings.Contains(err.Error(), `digest "d|3"`) {
		t.Errorf("error %q does not name the digest", err)
	}
}

// TestServerCondCountBounded: a request carries at most maxConds
// distinct conditions. A conditioned chain keeps an O(n) certificate per
// condition, so a long list of conditions that always hold (here u>v=0
// from a node with one out-edge, or none) would otherwise make one
// request allocate O(conditions × n). At the bound the request is
// served, duplicates not counting; one past it is a 400, and a request
// with thousands of conditions allocates a small fraction of
// conditions × n bytes. The server runs on the real clock with a short
// window, so a request the bound let through would be answered too.
func TestServerCondCountBounded(t *testing.T) {
	const n = 4096
	g := graph.New(n)
	g.MustAddEdge(0, 1)
	m := core.MustNewICM(g, []float64{0.5})
	_, ts, _ := startServer(t, func(c *Config) {
		c.Models = []Model{{Name: "m", ICM: m}}
		c.Clock, c.Window = RealClock(), time.Millisecond
	})
	url := ts.URL + "/flow?source=0&sink=1&samples=20&seed=3&cond="

	atBound := condList(maxConds, n)
	var first, again flowResponse
	if status := getJSON(t, url+atBound, &first); status != http.StatusOK {
		t.Fatalf("%d conditions: status %d, want 200", maxConds, status)
	}
	if status := getJSON(t, url+atBound+","+atBound, &again); status != http.StatusOK || !again.Cached || again.Prob != first.Prob {
		t.Errorf("%d conditions listed twice: status %d, cached %v, prob %v; want 200 from the cache with %v", maxConds, status, again.Cached, again.Prob, first.Prob)
	}

	const many = 4000
	var resp map[string]any
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	status := getJSON(t, url+condList(many, n), &resp)
	runtime.ReadMemStats(&after)
	if status != http.StatusBadRequest {
		t.Errorf("%d conditions: status %d, want 400 (%v)", many, status, resp)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(many*n/4); got > limit {
		t.Errorf("%d conditions on %d nodes allocated %d bytes, want at most %d", many, n, got, limit)
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
	waitUntil(t, "the batch window to arm", func() bool { return clock.Waiters() > 0 })
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

// condOrderModel is a 6-node model on which the order of two forbidden
// flows, a~>d and b~>e, changes a chain's initial state: edges a->y,
// b->y, y->d are near certain (p = 0.9999), so every rejection try
// fails and NewSampler repairs the conditions one at a time, cutting
// y->d for a~>d first but d->e for b~>e first. d->e (p = 0.6) and e->f
// (p = 0.5) keep the conditioned chain's answers off 0 and 1.
func condOrderModel() *core.ICM {
	const a, b, y, d, e, f = 0, 1, 2, 3, 4, 5
	g := graph.New(6)
	for _, uv := range [][2]graph.NodeID{{a, y}, {b, y}, {y, d}, {d, e}, {e, f}} {
		g.MustAddEdge(uv[0], uv[1])
	}
	return core.MustNewICM(g, []float64{0.9999, 0.9999, 0.9999, 0.6, 0.5})
}

// TestServerCondOrderLeavesAnswers: a condition list in either order
// gets the same answer whichever order opened the batch, and that
// answer is the library's on the canonical (sorted) order. Each arrival
// order runs on a fresh server; the first request opens the batch, the
// second reads the cache.
func TestServerCondOrderLeavesAnswers(t *testing.T) {
	const canonical, reversed = "0>3=0,1>4=0", "1>4=0,0>3=0"
	m := condOrderModel()
	opts := mh.DefaultOptions(m.NumEdges())
	opts.Samples = 100
	conds, _, err := ParseConds(canonical, m.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	want, err := mh.FlowProb(m, 4, 5, conds, opts, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, arrival := range [][2]string{{canonical, reversed}, {reversed, canonical}} {
		_, ts, clock := startServer(t, func(c *Config) { c.Models = []Model{{Name: "m", ICM: m}} })
		var first flowResponse
		done := make(chan struct{})
		go func() {
			defer close(done)
			getJSON(t, ts.URL+"/flow?source=4&sink=5&samples=100&seed=1&cond="+arrival[0], &first)
		}()
		waitUntil(t, "the batch window to arm", func() bool { return clock.Waiters() > 0 })
		clock.Advance(time.Hour)
		<-done
		var second flowResponse
		if status := getJSON(t, ts.URL+"/flow?source=4&sink=5&samples=100&seed=1&cond="+arrival[1], &second); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		for _, got := range []flowResponse{first, second} {
			if got.Prob != want || got.Cond != canonical {
				t.Errorf("arrival %q: prob %v cond %q, library on the canonical order %v %q", arrival, got.Prob, got.Cond, want, canonical)
			}
		}
	}
}

// TestServerCondContradictions: a forbidden self-flow and a pair both
// required and forbidden are 422 at parse time, on /flow and /maximize
// alike; duplicates and a required self-flow are accepted.
func TestServerCondContradictions(t *testing.T) {
	_, ts, _ := startServer(t, nil)
	cases := []struct {
		path string
		want int
	}{
		{"/flow?source=0&sink=1&cond=2>2=0", http.StatusUnprocessableEntity},
		{"/flow?source=0&sink=1&cond=3>4=1,1>2=1,3>4=0", http.StatusUnprocessableEntity},
		{"/maximize?k=1&cond=2>2=0", http.StatusUnprocessableEntity},
		{"/maximize?k=1&cond=3>4=0,3>4=1", http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		var resp map[string]string
		if status := getJSON(t, ts.URL+tc.path, &resp); status != tc.want {
			t.Errorf("GET %s: status %d, want %d (%v)", tc.path, status, tc.want, resp)
		}
	}
	for raw, key := range map[string]string{
		"3>4=1,1>2=1,3>4=1": "1>2=1,3>4=1",
		"2>2=1":             "2>2=1",
	} {
		conds, err := readConds(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, got, err := canonicalConds(conds); err != nil || got != key {
			t.Errorf("canonicalConds(%q): key %q, error %v; want key %q", raw, got, err, key)
		}
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
	for _, k := range []string{"batch_occupancy", "cache_hit_rate", "queue_depth", "acceptance_rate", "lane_budget", "lane_utilization", "start_hits", "start_misses", "start_bytes", "maximize_rr_sets", "maximize_rr_members"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("flowserve expvar missing %q", k)
		}
	}
}

// TestServerLaneBudgetRounding pins the Config.LaneBudget normalisation:
// default 512, no rounding (a batch holds any number of queries up to
// the budget), cap at mh.MaxLanes.
func TestServerLaneBudgetRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 512},
		{-3, 512},
		{64, 64},
		{100, 100},
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
// batches — one lane-full flush at the budget plus the drain-time
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

// TestParseCondsRejectsGarbage exercises the exported reader directly:
// a list parses to its conditions in canonical order with their key,
// and a malformed one is refused.
func TestParseCondsRejectsGarbage(t *testing.T) {
	good, key, err := ParseConds(" 3>7=1 , 3>9=0 ", 10)
	if err != nil || len(good) != 2 || !good[0].Require || good[1].Require || key != "3>7=1,3>9=0" {
		t.Fatalf("ParseConds = %+v %q, %v", good, key, err)
	}
	got, key, err := ParseConds("3>7=1, 2>9=0 ,0>1=1", 10)
	want := []core.FlowCondition{{Source: 0, Sink: 1, Require: true}, {Source: 2, Sink: 9}, {Source: 3, Sink: 7, Require: true}}
	if err != nil || !slices.Equal(got, want) || key != "0>1=1,2>9=0,3>7=1" {
		t.Fatalf("ParseConds = %+v %q, %v; want %+v", got, key, err, want)
	}
	// Ids past int32 must be rejected, not wrapped onto node 0 or 1.
	for _, bad := range []string{
		"3>7", "3=1", "3-7=1", "a>b=1", "3>b=1", "3>7=2", ">=1", "3>7=1,,", "3 > 7 = x",
		"4294967296>5=1", "1>4294967297=0",
	} {
		if _, _, err := ParseConds(bad, 10); err == nil {
			t.Errorf("ParseConds(%q) accepted garbage", bad)
		}
	}
	if got, key, err := ParseConds("", 10); err != nil || got != nil || key != "" {
		t.Errorf("ParseConds(\"\") = %v %q, %v; want nil, \"\", nil", got, key, err)
	}
	if got, err := readNodes("2,4294967297"); err == nil {
		t.Errorf("readNodes wrapped an oversized id to %v", got)
	}
}
