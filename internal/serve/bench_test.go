package serve

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// paperScaleICM is the §IV-C fixture the serving benchmark serves as
// "paper": graph.Random 6000/14000 from seed 2, p = 0.2 + 0.4U.
func paperScaleICM() *core.ICM {
	r := rng.New(2)
	g := graph.Random(r, 6000, 14000)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 0.2 + 0.4*r.Float64()
	}
	return core.MustNewICM(g, p)
}

// paperCommunity is the serving benchmark's fixed /maximize target set:
// 500 nodes drawn from seed 5, in the canonical list form its requests
// carry.
func paperCommunity() string {
	idx := rng.New(5).Sample(6000, 500)
	sort.Ints(idx)
	parts := make([]string, len(idx))
	for i, v := range idx {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// discardWriter is a ResponseWriter that keeps nothing, so a benchmark
// times the handler rather than a recorder's buffer.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// cachedHit asks url once as a miss and once more to see that it is a
// hit, and returns the request to repeat and a writer that keeps
// nothing, so the caller times or counts the handler alone.
func cachedHit(tb testing.TB, s *Server, url string) (*http.Request, *discardWriter) {
	tb.Helper()
	if rec := serveDirect(s, url); rec.Code != http.StatusOK {
		tb.Fatalf("%s: miss got %d: %s", url, rec.Code, rec.Body)
	}
	if rec := serveDirect(s, url); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached":true`) {
		tb.Fatalf("%s: repeat got %d, not a hit: %.200s", url, rec.Code, rec.Body)
	}
	return httptest.NewRequest(http.MethodGet, url, nil), &discardWriter{header: http.Header{}}
}

// BenchmarkServeHit times cache hits on the §IV-C fixture, the read a
// client pays once an answer is cached: /maximize on the whole graph
// and restricted to the 500-node community (a planner's later budgets
// on one pool), /community, a sampled /impact over three sources, and
// /flow. Each request is asked once as a miss before timing; every
// timed iteration parses the query, keys it, reads the cache and
// renders the body.
func BenchmarkServeHit(b *testing.B) {
	s, err := NewServer(Config{Models: []Model{{Name: "paper", ICM: paperScaleICM()}}})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain()
	for _, bc := range []struct{ name, url string }{
		{"maximize", "/maximize?k=10&seed=7"},
		{"maximize-community", "/maximize?k=10&seed=7&community=" + paperCommunity()},
		{"community", "/community?source=3&samples=64&seed=7"},
		{"impact", "/impact?sources=3,17,250&mode=sampled&samples=64&seed=7"},
		{"flow", "/flow?source=3&sink=42&samples=64&seed=7"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			req, w := cachedHit(b, s, bc.url)
			h := s.Handler()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, req)
			}
			b.StopTimer()
			if w.status != http.StatusOK {
				b.Fatalf("%s: status %d", bc.url, w.status)
			}
		})
	}
}

// TestServeHitAllocs bounds what a cache hit allocates, so reflection, a
// per-id copy or a read of the node list cannot come back into the hit
// unnoticed. A community /maximize hit allocates the query and the
// budget's prefix of the ranking (the selection, its seeds and its
// gains); a sampled /impact hit the query alone. A hit reads no node
// list, and its cache key and body are appended into pooled buffers.
func TestServeHitAllocs(t *testing.T) {
	s, err := NewServer(Config{Models: []Model{{Name: "dag", ICM: serveDAG(7, 20, 40)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	for _, hit := range []struct {
		url string
		max float64
	}{
		{"/maximize?k=3&seed=5&community=1,4,6,9,12", 4},
		{"/impact?sources=3,5,17&mode=sampled&samples=20&seed=7", 1},
	} {
		req, w := cachedHit(t, s, hit.url)
		h := s.Handler()
		h.ServeHTTP(w, req) // warm the body pool
		if allocs := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); allocs > hit.max {
			t.Errorf("%s: a hit allocates %v times, want at most %v", hit.url, allocs, hit.max)
		}
	}
}
