package serve

import (
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
)

// FuzzParseMaximizeQuery hammers the /maximize query parser: for
// arbitrary k/community/cond/samples/roots/seed strings,
// parseMaximizeQuery must either reject with a 4xx *httpError or return
// a canonical query — budget in range, community strictly sorted,
// distinct, in range, with a targetsKey ParseSources round-trips, pool
// size within the sketch budget — and must never panic.
func FuzzParseMaximizeQuery(f *testing.F) {
	s, err := NewServer(Config{Models: []Model{{Name: "m", ICM: serveDAG(5, 12, 25)}}})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Drain()
	f.Add("1", "", "", "", "", "")
	f.Add("3", "2,0,2", "1>2=1", "64", "256", "9")
	f.Add(" 5 ", " 1 , 4 ", "", "", "64", "")
	f.Add("12", "0,1,2,3", "0>1=0,2>3=1", "256", "256", "18446744073709551615")
	f.Add("-1", "-3", "x", "-5", "100", "boom")
	f.Add("9999999999999999999999", "", "", "1000000", "1024", "")
	f.Fuzz(func(t *testing.T, k, community, cond, samples, roots, seed string) {
		vals := url.Values{}
		vals.Set("k", k)
		if community != "" {
			vals.Set("community", community)
		}
		if cond != "" {
			vals.Set("cond", cond)
		}
		if samples != "" {
			vals.Set("samples", samples)
		}
		if roots != "" {
			vals.Set("roots", roots)
		}
		if seed != "" {
			vals.Set("seed", seed)
		}
		req := httptest.NewRequest("GET", "/maximize?"+vals.Encode(), nil)
		q, herr := s.parseMaximizeQuery(req)
		if herr != nil {
			if herr.status < 400 || herr.status > 499 {
				t.Fatalf("parse error with non-4xx status %d: %s", herr.status, herr.msg)
			}
			return
		}
		n := q.model.ICM.NumNodes()
		if q.k <= 0 || q.k > n {
			t.Fatalf("accepted k %d outside [1, %d]", q.k, n)
		}
		for i, v := range q.targets {
			if int(v) < 0 || int(v) >= n {
				t.Fatalf("accepted target %d out of range [0, %d)", v, n)
			}
			if i > 0 && q.targets[i-1] >= v {
				t.Fatalf("targets not strictly sorted: %v", q.targets)
			}
		}
		if (q.targetsKey == "") != (q.targets == nil) {
			t.Fatalf("targetsKey %q inconsistent with targets %v", q.targetsKey, q.targets)
		}
		if q.targetsKey != "" {
			round, err := ParseSources(q.targetsKey)
			if err != nil || len(round) != len(q.targets) {
				t.Fatalf("targetsKey %q does not round-trip (%v, %v)", q.targetsKey, round, err)
			}
			for i := range round {
				if round[i] != q.targets[i] {
					t.Fatalf("targetsKey %q round-trips to %v, want %v", q.targetsKey, round, q.targets)
				}
			}
		}
		if q.roots <= 0 || q.roots%64 != 0 {
			t.Fatalf("accepted roots %d (want a positive multiple of 64)", q.roots)
		}
		if q.chain.Samples <= 0 || q.chain.Samples*q.roots > s.cfg.MaxSketchSets {
			t.Fatalf("accepted pool %d x %d past the %d-set budget", q.chain.Samples, q.roots, s.cfg.MaxSketchSets)
		}
	})
}

// FuzzParseImpactQuery hammers the /impact query parser: for arbitrary
// sources/mode/cond/samples/seed strings, parseQuery must either reject
// with an *httpError or return a canonical query — sources strictly
// sorted, distinct, in range, with a sourcesKey that ParseSources
// round-trips to the same set — and must never panic.
func FuzzParseImpactQuery(f *testing.F) {
	s, err := NewServer(Config{Models: []Model{{Name: "m", ICM: serveDAG(5, 12, 25)}}})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Drain()
	f.Add("0", "", "", "", "")
	f.Add("3,1,3", "auto", "1>2=1", "500", "9")
	f.Add(" 2 , 5 ", "analytic", "", "", "")
	f.Add("1,2,4", "sampled", "0>1=0,2>3=1", "50000", "18446744073709551615")
	f.Add("-1", "psychic", "x", "-5", "boom")
	f.Add("9999999999999999999999", "", "", "", "")
	f.Fuzz(func(t *testing.T, sources, mode, cond, samples, seed string) {
		vals := url.Values{}
		vals.Set("sources", sources)
		if mode != "" {
			vals.Set("mode", mode)
		}
		if cond != "" {
			vals.Set("cond", cond)
		}
		if samples != "" {
			vals.Set("samples", samples)
		}
		if seed != "" {
			vals.Set("seed", seed)
		}
		req := httptest.NewRequest("GET", "/impact?"+vals.Encode(), nil)
		q, herr := s.parseQuery(req, kindImpact)
		if herr != nil {
			if herr.status < 400 || herr.status > 499 {
				t.Fatalf("parse error with non-4xx status %d: %s", herr.status, herr.msg)
			}
			return
		}
		n := q.model.ICM.NumNodes()
		if len(q.sources) == 0 {
			t.Fatal("accepted query has no sources")
		}
		for i, src := range q.sources {
			if int(src) < 0 || int(src) >= n {
				t.Fatalf("accepted source %d out of range [0, %d)", src, n)
			}
			if i > 0 && q.sources[i-1] >= src {
				t.Fatalf("sources not strictly sorted: %v", q.sources)
			}
		}
		if q.mode != "auto" && q.mode != "analytic" && q.mode != "sampled" {
			t.Fatalf("accepted mode %q", q.mode)
		}
		round, err := ParseSources(q.sourcesKey)
		if err != nil {
			t.Fatalf("sourcesKey %q does not re-parse: %v", q.sourcesKey, err)
		}
		if len(round) != len(q.sources) {
			t.Fatalf("sourcesKey %q round-trips to %d sources, want %d", q.sourcesKey, len(round), len(q.sources))
		}
		for i := range round {
			if round[i] != q.sources[i] {
				t.Fatalf("sourcesKey %q round-trips to %v, want %v", q.sourcesKey, round, q.sources)
			}
		}
		if q.opts.Samples <= 0 || q.opts.Samples > s.cfg.MaxSamples {
			t.Fatalf("accepted samples %d outside (0, %d]", q.opts.Samples, s.cfg.MaxSamples)
		}
	})
}

// FuzzParseConds checks the canonical condition order: for any cond=
// value that parses, every ordering of its comma-separated parts
// canonicalises to the same list and key (or to the same rejection), and
// the key re-parses to that list. Values of up to five parts try every
// permutation; longer ones try each rotation, forwards and reversed.
func FuzzParseConds(f *testing.F) {
	f.Add("1>2=1")
	f.Add("3>4=0,1>2=1")
	f.Add(" 5 > 6 = 0 ,5>6=0,2>2=1,10>3=0")
	f.Add("1>2=1,4>1=0,1>2=0")
	f.Add("7>7=0")
	f.Add("")
	f.Fuzz(func(t *testing.T, raw string) {
		conds, err := ParseConds(raw)
		if err != nil {
			return
		}
		want, key, werr := CanonicalConds(conds)
		if werr == nil {
			round, err := ParseConds(key)
			if err != nil || !slices.Equal(round, want) {
				t.Fatalf("key %q re-parses to %v (%v), want %v", key, round, err, want)
			}
		}
		orderings(strings.Split(raw, ","), func(parts []string) {
			joined := strings.Join(parts, ",")
			perm, err := ParseConds(joined)
			if err != nil {
				t.Fatalf("%q parses but its reordering %q does not: %v", raw, joined, err)
			}
			got, gkey, gerr := CanonicalConds(perm)
			if (gerr == nil) != (werr == nil) || (werr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("%q canonicalises with error %v, its reordering %q with %v", raw, werr, joined, gerr)
			}
			if gkey != key || !slices.Equal(got, want) {
				t.Fatalf("%q canonicalises to %v %q, its reordering %q to %v %q", raw, want, key, joined, got, gkey)
			}
		})
	})
}

// orderings calls visit with reorderings of parts (see FuzzParseConds).
// visit must not retain its argument.
func orderings(parts []string, visit func([]string)) {
	n := len(parts)
	if n <= 5 {
		// Heap's algorithm.
		p := slices.Clone(parts)
		c := make([]int, n)
		visit(p)
		for i := 1; i < n; {
			if c[i] < i {
				if i%2 == 0 {
					p[0], p[i] = p[i], p[0]
				} else {
					p[c[i]], p[i] = p[i], p[c[i]]
				}
				visit(p)
				c[i]++
				i = 1
			} else {
				c[i] = 0
				i++
			}
		}
		return
	}
	for k := 0; k < n; k++ {
		p := append(slices.Clone(parts[k:]), parts[:k]...)
		visit(p)
		slices.Reverse(p)
		visit(p)
	}
}
