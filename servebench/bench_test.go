package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func smallModels(t *testing.T) *servedModels {
	t.Helper()
	return newServedModels(paperModel(smallScale), treeModel(smallScale))
}

func urls(reqs []request) []string {
	out := make([]string, len(reqs))
	for i, q := range reqs {
		out[i] = q.url
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	sm := smallModels(t)
	burst := func(seed uint64) []string {
		g := newBurstGen(sm, burstSmall, seed)
		var all []string
		for i := 0; i < 3; i++ {
			all = append(all, urls(g.next().reqs)...)
		}
		return all
	}
	if !reflect.DeepEqual(burst(7), burst(7)) {
		t.Error("flow_burst: same seed gave different pages")
	}
	if reflect.DeepEqual(burst(7), burst(8)) {
		t.Error("flow_burst: different seeds gave the same pages")
	}

	pool, err := buildEvidencePool(sm.paper, condSmall)
	if err != nil {
		t.Fatal(err)
	}
	cond := func(seed uint64) []string {
		g := newCondGen(sm, pool, condSmall, seed)
		var all []string
		for i := 0; i < 3*condSmall.cycle; i++ {
			all = append(all, urls(g.next().reqs)...)
		}
		return all
	}
	if !reflect.DeepEqual(cond(7), cond(7)) {
		t.Error("cond_pages: same seed gave different pages")
	}
	if reflect.DeepEqual(cond(7), cond(8)) {
		t.Error("cond_pages: different seeds gave the same pages")
	}

	sel := func(seed uint64, caller int) []string {
		g := newSelectGen(sm, seed, caller)
		var all []string
		for i := 0; i < 24; i++ {
			all = append(all, g.next().url)
		}
		return all
	}
	if !reflect.DeepEqual(sel(7, 0), sel(7, 0)) {
		t.Error("select_impact: same seed gave different requests")
	}
	if reflect.DeepEqual(sel(7, 0), sel(7, 1)) {
		t.Error("select_impact: both callers ask the same requests")
	}
}

// TestCondPagesRepeatShare checks that after a set's first page, every
// cond_pages page re-asks exactly reFlows flows and reComms sources,
// all from the set's previous page.
func TestCondPagesRepeatShare(t *testing.T) {
	sm := smallModels(t)
	pool, err := buildEvidencePool(sm.paper, condSmall)
	if err != nil {
		t.Fatal(err)
	}
	g := newCondGen(sm, pool, condSmall, 3)
	prev := map[string]map[string]bool{} // evidence → URLs of its previous page
	for i := 0; i < 4*condSmall.cycle; i++ {
		p := g.next()
		if len(p.reqs) != condSmall.flows+condSmall.comms {
			t.Fatalf("page %d has %d requests", i, len(p.reqs))
		}
		ev := p.reqs[0].conds
		last, seen := prev[ev]
		repeats := 0
		cur := map[string]bool{}
		for _, q := range p.reqs {
			if q.conds != ev {
				t.Fatalf("page %d mixes evidence sets", i)
			}
			if last[q.url] {
				repeats++
			}
			cur[q.url] = true
		}
		want := condSmall.reFlows + condSmall.reComms
		if !seen {
			want = 0
		}
		if repeats != want {
			t.Errorf("page %d re-asks %d queries, want %d", i, repeats, want)
		}
		prev[ev] = cur
	}
	if len(prev) != len(pool) {
		t.Errorf("%d of %d evidence sets asked", len(prev), len(pool))
	}
}

func TestZipfCycle(t *testing.T) {
	picks := zipfCycle(4, 1.0, 25)
	if len(picks) != 25 {
		t.Fatalf("got %d picks, want 25", len(picks))
	}
	counts := make([]int, 4)
	for i, e := range picks {
		counts[e]++
		// Every prefix holds each item's share, give or take one.
		for item, c := range counts {
			share := float64(i+1) * []float64{12, 6, 4, 3}[item] / 25
			if math.Abs(float64(c)-share) > 1 {
				t.Errorf("prefix %d holds %d of item %d, share %.2f", i+1, c, item, share)
			}
		}
	}
	// Weights 1, 1/2, 1/3, 1/4 of 25: 12.0, 6.0, 4.0, 3.0.
	if want := []int{12, 6, 4, 3}; !reflect.DeepEqual(counts, want) {
		t.Errorf("counts %v, want %v", counts, want)
	}
}

func TestTailSelection(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n       int
		q, v    float64
		beyond  int
		hasTail bool
	}{
		{n: 1000, q: 0.99, v: 990, beyond: 10, hasTail: true},
		{n: 999, q: 0.95, v: 950, beyond: 49, hasTail: true},
		{n: 200, q: 0.95, v: 190, beyond: 10, hasTail: true},
		{n: 150, q: 0.90, v: 135, beyond: 15, hasTail: true},
		{n: 100, q: 0.90, v: 90, beyond: 10, hasTail: true},
		{n: 99, hasTail: false},
	}
	for _, c := range cases {
		v, q, ok := tail(seq(c.n))
		if ok != c.hasTail {
			t.Errorf("n=%d: tail ok=%v, want %v", c.n, ok, c.hasTail)
			continue
		}
		if !ok {
			continue
		}
		if q != c.q || v != c.v || c.n-rankOf(q, c.n) != c.beyond {
			t.Errorf("n=%d: tail p%g=%g with %d beyond, want p%g=%g with %d",
				c.n, q*100, v, c.n-rankOf(q, c.n), c.q*100, c.v, c.beyond)
		}
	}
	if s := summarize([]float64{3, 1, 2}); s.p50 != 2 || s.hasTail {
		t.Errorf("summarize 3 samples: %+v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{name: "replay.batch", parent: -1, start: at(0), end: at(100)},
		{name: "mh.a", parent: 0, start: at(10), end: at(30)},
		{name: "mh.b", parent: 0, start: at(20), end: at(50)},     // overlaps a
		{name: "graph.c", parent: 0, start: at(90), end: at(120)}, // runs past its parent
		{name: "graph.d", parent: 1, start: at(12), end: at(18)},  // grandchild of the root
	}
	self := selfTimes(spans)
	want := []time.Duration{at(50), at(14), at(30), at(30), at(6)}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if c := childCoverage(spans, 0); c != 0.5 {
		t.Errorf("root coverage %v, want 0.5", c)
	}
}

// lastLine decodes the result line of a run.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// TestSmokeEachWorkload runs every workload briefly on the small
// models, untraced and traced, and checks the result line against
// BENCHMARK.json.
func TestSmokeEachWorkload(t *testing.T) {
	e2e, layers := benchmarkNames(t)
	for _, w := range []string{"flow_burst", "cond_pages", "select_impact"} {
		for _, trace := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "3", "--seconds", "0.6", "--trace", trace, "--small"}, &out, &errb)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w, trace, code, errb.String())
			}
			res := lastLine(t, out.String())
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace == "1" {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w, trace, name, m, unit)
				}
			}
		}
	}
}

// TestReplayEqualsServed checks that the traced replay reproduces the
// served answers on the small model, and that it notices when they
// differ.
func TestReplayEqualsServed(t *testing.T) {
	for _, w := range []string{"flow_burst", "cond_pages", "select_impact"} {
		rep, err := execute(config{workload: w, seed: 5, seconds: 0.6, trace: true, small: true}, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.mismatches != 0 {
			t.Fatalf("%s: replay or reference mismatches: %d", w, rep.mismatches)
		}
		if rep.layers["bench.replay_batches"].Value == 0 {
			t.Fatalf("%s: nothing was replayed", w)
		}
		if c := rep.layers["bench.replay_coverage"].Value; c < minCoverage {
			t.Errorf("%s: replay coverage %v below %v", w, c, minCoverage)
		}

		// Corrupt every served answer the replay compares; it must object.
		for _, o := range rep.phases[1].outcomes {
			if o.status != http.StatusOK {
				continue
			}
			var body map[string]any
			if err := json.Unmarshal(o.body, &body); err != nil {
				t.Fatal(err)
			}
			switch o.req.ep {
			case epFlow:
				body["prob"] = body["prob"].(float64) + 0.5
			case epCommunity, epImpact:
				body["top"], body["dist"] = []any{}, []any{1.0}
			case epMaximize:
				body["spread_estimate"] = -1.0
			}
			o.body, _ = json.Marshal(body)
		}
		rep.tracer = newTracer()
		rep.mismatches, rep.Correct = 0, true
		if err := rep.replay(); err != nil {
			t.Fatal(err)
		}
		if rep.mismatches == 0 || rep.Correct {
			t.Errorf("%s: replay accepted corrupted served answers", w)
		}
	}
}

// TestFailedRequestsFailTheRun serves one endpoint with 500s: the run
// must be wrong and exit non-zero, not report the failures as speed.
func TestFailedRequestsFailTheRun(t *testing.T) {
	for _, c := range []struct{ workload, path string }{
		{"select_impact", "/maximize"}, // the lead endpoint: no answers at all
		{"flow_burst", "/impact"},      // a second endpoint
	} {
		wrap := func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == c.path {
					http.Error(w, "broken", http.StatusInternalServerError)
					return
				}
				next.ServeHTTP(w, r)
			})
		}
		rep, err := execute(config{workload: c.workload, seed: 5, seconds: 0.3, small: true, wrap: wrap}, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		rep.print(&out)
		if res := lastLine(t, out.String()); res.Correct || res.Failed == 0 {
			t.Errorf("%s with %s failing: correct=%v failed=%d", c.workload, c.path, res.Correct, res.Failed)
		}
		if code := rep.exitCode(&errb); code == 0 {
			t.Errorf("%s with %s failing: exit 0", c.workload, c.path)
		}
		if !strings.Contains(errb.String(), "status 500") {
			t.Errorf("%s with %s failing: stderr %q does not name the failure", c.workload, c.path, errb.String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "flow_burst", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
			t.Errorf("run %v: exit 0, want non-zero", args)
		}
	}
}
