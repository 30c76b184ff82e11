package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"infoflow/internal/graph"
)

// The reference rendering is encoding/json on the payload structs. Two
// field types hold a compact form the writer renders from; here they
// marshal to the form the bodies had when encoding/json wrote them: a
// nodeList to the []int of its ids, a sizeLaw to its full-length
// vector. A list decodes back to its canonical form, so tests can decode
// bodies into the structs.

func (l nodeList) MarshalJSON() ([]byte, error) {
	ids, err := readNodes(string(l))
	if err != nil {
		return nil, err
	}
	ints := make([]int, len(ids))
	for i, v := range ids {
		ints[i] = int(v)
	}
	return json.Marshal(ints)
}

func (l *nodeList) UnmarshalJSON(data []byte) error {
	var ids []graph.NodeID
	if err := json.Unmarshal(data, &ids); err != nil {
		return err
	}
	*l = nodeList(sourcesKey(ids))
	return nil
}

func (l sizeLaw) MarshalJSON() ([]byte, error) { return json.Marshal(l.dist()) }

// sameBody renders a body through writeBody, as a handler does, and
// fails t unless status, Content-Type and every byte equal what the
// handlers' old path, json.NewEncoder(w).Encode(v), wrote.
func sameBody(t *testing.T, status int, render func([]byte) []byte, v any) {
	t.Helper()
	rec := httptest.NewRecorder()
	writeBody(rec, status, render)
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatalf("encoding/json refused %#v: %v", v, err)
	}
	if rec.Code != status || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Content-Type %q; want %d, application/json", rec.Code, rec.Header().Get("Content-Type"), status)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("body differs from encoding/json's for %#v\n got %q\nwant %q", v, got, want.Bytes())
	}
}

// renderCorpus draws the field values the property test renders: the
// strings, floats and integers where a hand-written encoder can part
// from encoding/json.
type renderCorpus struct{ r *rand.Rand }

var (
	corpusStrings = []string{
		"", "paper", "m", "3>4=0,0>5=1", `<script>&"\`, "a\x00b\x01c\x1f\x7f", "\b\f\n\r\t",
		"line\u2028sep\u2029end", "\xff", "bad\xfe\xfdutf8", "cut\xc3", "\xe2\x80", "\u65e5\u672c", "emoji \U0001f600",
		"cond 2>2=0: a node always reaches itself", `quote "q" and \ backslash`,
	}
	corpusBytes = []byte("az09 ,.<>&\"\\/\x00\x01\x08\x09\x0a\x0c\x0d\x1f\x7f\x80\xbf\xc3\xa9\xe2\x80\xa8\xa9\xf0\x9f\x98\x80\xff")
)

func corpusFloats() []float64 {
	minNormal := 0x1p-1022
	fs := []float64{
		0, math.Copysign(0, -1), 1, 2, 3, 100, 12345, 1 << 53, 1e20, 0.1, 1.0 / 3, 0.5, 0.002,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 9.999999e-7, 1.5e-9, 1e-10,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e22, 1.5e300,
		math.SmallestNonzeroFloat64, minNormal, math.Nextafter(minNormal, 0), 3e-310,
		math.MaxFloat64,
	}
	for _, f := range fs[:len(fs):len(fs)] {
		fs = append(fs, -f)
	}
	return fs
}

func (c renderCorpus) str() string {
	if c.r.IntN(2) == 0 {
		return corpusStrings[c.r.IntN(len(corpusStrings))]
	}
	b := make([]byte, c.r.IntN(12))
	for i := range b {
		b[i] = corpusBytes[c.r.IntN(len(corpusBytes))]
	}
	return string(b)
}

func (c renderCorpus) float() float64 {
	switch c.r.IntN(4) {
	case 0:
		fs := corpusFloats()
		return fs[c.r.IntN(len(fs))]
	case 1:
		return c.r.Float64()
	case 2:
		return float64(c.r.IntN(1000)) / float64(1+c.r.IntN(1000))
	}
	for {
		if f := math.Float64frombits(c.r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

func (c renderCorpus) floats() []float64 {
	if c.r.IntN(5) == 0 {
		return nil
	}
	fs := make([]float64, c.r.IntN(8))
	for i := range fs {
		fs[i] = c.float()
	}
	return fs
}

func (c renderCorpus) int() int {
	switch c.r.IntN(4) {
	case 0:
		return 0
	case 1:
		return []int{1, -1, math.MaxInt64, math.MinInt64, 6000}[c.r.IntN(5)]
	}
	return c.r.IntN(1<<20) - 1<<10
}

func (c renderCorpus) uint() uint64 {
	switch c.r.IntN(3) {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	}
	return c.r.Uint64() >> c.r.IntN(64)
}

func (c renderCorpus) nodes() []graph.NodeID {
	if c.r.IntN(5) == 0 {
		return nil
	}
	ids := make([]graph.NodeID, c.r.IntN(8))
	for i := range ids {
		ids[i] = graph.NodeID(c.r.IntN(math.MaxInt32))
	}
	return ids
}

// list is a canonical node list, "" when nodes draws none.
func (c renderCorpus) list() nodeList {
	ids := c.nodes()
	for i := range ids {
		ids[i] %= 6000
	}
	slices.Sort(ids)
	return nodeList(sourcesKey(slices.Compact(ids)))
}

func (c renderCorpus) law() sizeLaw {
	l := sizeLaw{support: c.floats()}
	l.length = len(l.support)
	switch c.r.IntN(3) {
	case 1:
		l.length += c.r.IntN(4)
	case 2:
		l.length += c.r.IntN(5000) // past zeroTail's block
	}
	return l
}

func (c renderCorpus) stats() batchStats {
	if c.r.IntN(3) == 0 {
		return batchStats{}
	}
	return batchStats{BatchSize: c.int(), Lanes: c.int(), Acceptance: c.float()}
}

// TestRenderMatchesEncodingJSON renders random answers of every kind —
// the four endpoints' payloads, errors and /healthz — with the writer
// and with encoding/json, and demands the same bytes: every omitempty
// field at zero and not, strings with HTML, control, U+2028/U+2029 and
// invalid UTF-8 bytes, floats on both sides of each exponent cutoff and
// subnormals, nil and empty lists, and laws with and without a zero
// tail.
func TestRenderMatchesEncodingJSON(t *testing.T) {
	c := renderCorpus{rand.New(rand.NewPCG(27, 1))}
	for _, f := range corpusFloats() {
		resp := flowResponse{Model: "m", Prob: f, batchStats: batchStats{Acceptance: f}}
		sameBody(t, http.StatusOK, resp.appendJSON, resp)
	}
	for range 2000 {
		flow := flowResponse{
			Model: c.str(), Source: c.int(), Sink: c.int(), Cond: c.str(), Prob: c.float(),
			Samples: c.int(), Seed: c.uint(), Cached: c.r.IntN(2) == 0, batchStats: c.stats(),
		}
		sameBody(t, http.StatusOK, flow.appendJSON, flow)

		community := communityResponse{
			Model: c.str(), Source: c.int(), Cond: c.str(), Samples: c.int(), Seed: c.uint(),
			Cached: c.r.IntN(2) == 0, batchStats: c.stats(),
		}
		if fs := c.floats(); fs != nil {
			community.Top = make([]communityEntry, len(fs))
			for i, f := range fs {
				community.Top[i] = communityEntry{Node: c.int(), Prob: f}
			}
		}
		sameBody(t, http.StatusOK, community.appendJSON, community)

		impact := impactResponse{
			Model: c.str(), Sources: c.list(), Cond: c.str(), Mode: c.str(), Method: c.str(),
			Exact: c.r.IntN(2) == 0, Mean: c.float(), Dist: c.law(), Samples: c.int(), Seed: c.uint(),
			Cached: c.r.IntN(2) == 0, batchStats: c.stats(),
		}
		sameBody(t, http.StatusOK, impact.appendJSON, impact)

		maximize := maximizeResponse{
			Model: c.str(), K: c.int(), Community: c.list(), Cond: c.str(), Seeds: c.nodes(),
			MarginalGains: c.floats(), SpreadEstimate: c.float(), Universe: c.int(), RRSets: c.int(),
			Samples: c.int(), Roots: c.int(), Seed: c.uint(), Cached: c.r.IntN(2) == 0,
		}
		sameBody(t, http.StatusOK, maximize.appendJSON, maximize)

		msg := c.str()
		status := []int{http.StatusBadRequest, http.StatusNotFound, http.StatusUnprocessableEntity,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout}[c.r.IntN(5)]
		sameBody(t, status, func(b []byte) []byte { return appendMessage(b, "error", msg) },
			map[string]string{"error": msg})
		sameBody(t, http.StatusOK, func(b []byte) []byte { return appendMessage(b, "status", msg) },
			map[string]string{"status": msg})
	}
}

// TestServedErrorAndHealthBodies checks the writers the handlers call
// for errors and /healthz against encoding/json's bodies.
func TestServedErrorAndHealthBodies(t *testing.T) {
	s, err := NewServer(Config{Models: []Model{{Name: "m", ICM: serveDAG(7, 20, 40)}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, herr := range []*httpError{
		badRequest("cond: condition %q: want u>v=0|1", "3-7"),
		{status: http.StatusNotFound, msg: `unknown model "<\xff>"`},
	} {
		rec := httptest.NewRecorder()
		writeError(rec, herr)
		want, _ := json.Marshal(map[string]string{"error": herr.msg})
		if rec.Code != herr.status || rec.Body.String() != string(want)+"\n" {
			t.Errorf("writeError: %d %q, want %d %q", rec.Code, rec.Body, herr.status, want)
		}
	}
	for _, want := range []struct {
		status int
		body   string
	}{{http.StatusOK, "ok"}, {http.StatusServiceUnavailable, "draining"}} {
		if want.status == http.StatusServiceUnavailable {
			s.Drain()
		}
		rec := serveDirect(s, "/healthz")
		body, _ := json.Marshal(map[string]string{"status": want.body})
		if rec.Code != want.status || rec.Body.String() != string(body)+"\n" {
			t.Errorf("/healthz: %d %q, want %d %q", rec.Code, rec.Body, want.status, body)
		}
	}
}

// FuzzRenderBody builds a payload of the kind kind picks (mod 6: /flow,
// /community, /impact, /maximize, an error, /healthz) from the fuzzed
// values and demands the writer's bytes equal encoding/json's. Bits of
// n and u decide which omitempty fields are set, list lengths and the
// ids of node lists; a non-finite float is skipped, since encoding/json
// refuses it and no served float is one.
func FuzzRenderBody(f *testing.F) {
	f.Add(uint8(0), "paper", "3>4=1", 0.25, 0.0, int64(7), uint64(42))
	f.Add(uint8(1), "m", "", 1e-7, 1e21, int64(-3), uint64(0))
	f.Add(uint8(2), "dag", "0>1=0", 0.5, 5e-324, int64(12), uint64(1<<40|5))
	f.Add(uint8(3), "<&>", " \xff", 999999999999999999999.0, -0.0, int64(1<<33), uint64(1<<63))
	f.Add(uint8(4), "cond \"3-7\": want u>v=0|1", "", 0.0, 0.0, int64(0), uint64(0))
	f.Add(uint8(5), "draining", "", 0.0, 0.0, int64(0), uint64(0))
	f.Fuzz(func(t *testing.T, kind uint8, s1, s2 string, f1, f2 float64, n int64, u uint64) {
		for _, v := range []float64{f1, f2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("encoding/json refuses non-finite floats")
			}
		}
		stats := batchStats{BatchSize: int(n % 5), Lanes: int(u % 3), Acceptance: f2 * float64(n&1)}
		var ids []graph.NodeID
		for v := range 64 {
			if u>>v&1 == 1 {
				ids = append(ids, graph.NodeID(v))
			}
		}
		list := nodeList(sourcesKey(ids))
		floats := []float64{f1, f2, f1 * f2, f1 + f2}[:n&3]
		if n&4 == 0 {
			floats = nil
		}
		switch kind % 6 {
		case 0:
			resp := flowResponse{Model: s1, Source: int(n), Sink: int(u), Cond: s2, Prob: f1,
				Samples: int(n >> 8), Seed: u, Cached: n&8 != 0, batchStats: stats}
			sameBody(t, http.StatusOK, resp.appendJSON, resp)
		case 1:
			resp := communityResponse{Model: s1, Source: int(n), Cond: s2, Samples: int(u), Seed: u >> 3,
				Cached: n&8 != 0, batchStats: stats}
			for i, p := range floats {
				resp.Top = append(resp.Top, communityEntry{Node: i * int(n), Prob: p})
			}
			sameBody(t, http.StatusOK, resp.appendJSON, resp)
		case 2:
			resp := impactResponse{Model: s1, Sources: list, Cond: s2, Mode: s2, Method: s1, Exact: n&8 != 0,
				Mean: f1, Dist: sizeLaw{support: floats, length: len(floats) + int(u%4100)},
				Samples: int(n >> 4), Seed: u >> 2, Cached: n&16 != 0, batchStats: stats}
			sameBody(t, http.StatusOK, resp.appendJSON, resp)
		case 3:
			resp := maximizeResponse{Model: s1, K: int(n), Community: list, Cond: s2, Seeds: ids,
				MarginalGains: floats, SpreadEstimate: f1 + f2, Universe: int(u >> 1), RRSets: int(n >> 2),
				Samples: int(n >> 3), Roots: int(u >> 5), Seed: u, Cached: n&8 != 0}
			sameBody(t, http.StatusOK, resp.appendJSON, resp)
		case 4:
			sameBody(t, http.StatusBadRequest, func(b []byte) []byte { return appendMessage(b, "error", s1) },
				map[string]string{"error": s1})
		default:
			sameBody(t, http.StatusOK, func(b []byte) []byte { return appendMessage(b, "status", s1) },
				map[string]string{"status": s1})
		}
	})
}
