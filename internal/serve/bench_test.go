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

// BenchmarkServeHit times cache hits on the §IV-C fixture, the read a
// client pays once an answer is cached: /maximize on the whole graph
// and restricted to the 500-node community (a planner's later budgets
// on one pool), /community, and a sampled /impact over three sources.
// Each request is asked once as a miss before timing; every timed
// iteration parses the query, keys it, reads the cache and renders the
// body.
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
	} {
		b.Run(bc.name, func(b *testing.B) {
			if rec := serveDirect(s, bc.url); rec.Code != http.StatusOK {
				b.Fatalf("%s: miss got %d: %s", bc.url, rec.Code, rec.Body)
			}
			if rec := serveDirect(s, bc.url); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached":true`) {
				b.Fatalf("%s: repeat got %d, not a hit: %.200s", bc.url, rec.Code, rec.Body)
			}
			req := httptest.NewRequest(http.MethodGet, bc.url, nil)
			w := &discardWriter{header: http.Header{}}
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
