package serve

import (
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
)

// FuzzParseQuery hammers the one query parser over all four endpoints.
// kind picks the endpoint (mod 4: /flow, /community, /impact,
// /maximize); first and second fill its own two parameters (source and
// sink; source and top; sources and mode; k and community), and roots
// reaches /maximize only. For arbitrary strings parseQuery must either
// reject with a 4xx *httpError or return a query of the asked kind that
// holds every bound it promises — nodes in range; a node set strictly
// sorted, distinct and keyed by a string ParseSources round-trips; a
// budget, top, mode, sample count and pool within their limits; at most
// maxConds in-range conditions, none under mode=analytic; a positive
// timeout — and must never panic. The node list of /impact and
// /maximize must also parse exactly as the pipeline parseNodeSet
// replaced (see sameAsReference). Seeds #16 on are node lists in the
// forms that are not their own key (signed, zero-padded, spaced,
// duplicated, unsorted, with empty tokens or ids past n or 2^31), and
// one canonical list that is.
func FuzzParseQuery(f *testing.F) {
	s, err := NewServer(Config{Models: []Model{{Name: "m", ICM: serveDAG(5, 12, 25)}}})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Drain()
	f.Add(uint8(kindImpact), "0", "", "", "", "", "", "")
	f.Add(uint8(kindImpact), "3,1,3", "auto", "1>2=1", "500", "", "9", "")
	f.Add(uint8(kindImpact), " 2 , 5 ", "analytic", "", "", "", "", "")
	f.Add(uint8(kindImpact), "1,2,4", "sampled", "0>1=0,2>3=1", "50000", "", "18446744073709551615", "")
	f.Add(uint8(kindImpact), "-1", "psychic", "x", "-5", "", "boom", "")
	f.Add(uint8(kindImpact), "9999999999999999999999", "", "", "", "", "", "")
	f.Add(uint8(kindMaximize), "1", "", "", "", "", "", "")
	f.Add(uint8(kindMaximize), "3", "2,0,2", "1>2=1", "64", "256", "9", "")
	f.Add(uint8(kindMaximize), " 5 ", " 1 , 4 ", "", "", "64", "", "")
	f.Add(uint8(kindMaximize), "12", "0,1,2,3", "0>1=0,2>3=1", "256", "256", "18446744073709551615", "")
	f.Add(uint8(kindMaximize), "-1", "-3", "x", "-5", "100", "boom", "")
	f.Add(uint8(kindMaximize), "9999999999999999999999", "", "", "1000000", "1024", "", "")
	f.Add(uint8(kindFlow), "0", "11", "3>4=1", "100", "", "7", "2s")
	f.Add(uint8(kindFlow), "12", "-1", "", "0", "", "", "-1s")
	f.Add(uint8(kindCommunity), "4", "3", "2>2=0", "", "", "", "")
	f.Add(uint8(kindCommunity), " 4", "99999999999999999999", "", "60000", "64", "", "1h")
	f.Add(uint8(kindImpact), "+3,01, 2", "auto", "", "", "", "", "")
	f.Add(uint8(kindImpact), "1,,2", "", "", "", "", "", "")
	f.Add(uint8(kindImpact), "3,", "sampled", "", "", "", "", "")
	f.Add(uint8(kindImpact), "2147483648,1", "", "", "", "", "", "")
	f.Add(uint8(kindMaximize), "2", "5,3,5,+1", "", "", "", "", "")
	f.Add(uint8(kindMaximize), "2", "-1,4", "", "", "", "", "")
	f.Add(uint8(kindMaximize), "2", "1, 2 ,00", "", "", "", "", "")
	f.Add(uint8(kindMaximize), "2", "4,12", "", "", "", "", "")
	f.Add(uint8(kindMaximize), "1", "0,1,2,3,4,5,6,7,8,9,10,11", "", "", "", "", "")
	f.Fuzz(func(t *testing.T, kindByte uint8, first, second, cond, samples, roots, seed, timeout string) {
		kind := queryKind(kindByte % 4)
		switch n := s.models["m"].ICM.NumNodes(); {
		case kind == kindImpact:
			sameAsReference(t, first, n)
		case kind == kindMaximize && second != "":
			sameAsReference(t, second, n)
		}
		params := [...][2]string{
			kindFlow:      {"source", "sink"},
			kindCommunity: {"source", "top"},
			kindImpact:    {"sources", "mode"},
			kindMaximize:  {"k", "community"},
		}[kind]
		vals := url.Values{}
		for name, v := range map[string]string{
			params[0]: first, params[1]: second,
			"cond": cond, "samples": samples, "roots": roots, "seed": seed, "timeout": timeout,
		} {
			if v != "" {
				vals.Set(name, v)
			}
		}
		paths := [...]string{kindFlow: "/flow", kindCommunity: "/community", kindImpact: "/impact", kindMaximize: "/maximize"}
		req := httptest.NewRequest("GET", paths[kind]+"?"+vals.Encode(), nil)
		q, herr := s.parseQuery(req, kind)
		if herr != nil {
			if herr.status < 400 || herr.status > 499 {
				t.Fatalf("parse error with non-4xx status %d: %s", herr.status, herr.msg)
			}
			return
		}
		if q.kind != kind {
			t.Fatalf("parsed a %d request as kind %d", kind, q.kind)
		}
		n := q.model.ICM.NumNodes()
		if int(q.source) < 0 || int(q.source) >= n || int(q.sink) < 0 || int(q.sink) >= n {
			t.Fatalf("accepted source %d / sink %d out of range [0, %d)", q.source, q.sink, n)
		}
		for i, v := range q.nodes {
			if int(v) < 0 || int(v) >= n {
				t.Fatalf("accepted node %d out of range [0, %d)", v, n)
			}
			if i > 0 && q.nodes[i-1] >= v {
				t.Fatalf("nodes not strictly sorted: %v", q.nodes)
			}
		}
		if (q.nodesKey == "") != (q.nodes == nil) {
			t.Fatalf("nodesKey %q inconsistent with nodes %v", q.nodesKey, q.nodes)
		}
		if q.nodesKey != "" {
			round, err := ParseSources(q.nodesKey)
			if err != nil || !slices.Equal(round, q.nodes) {
				t.Fatalf("nodesKey %q round-trips to %v (%v), want %v", q.nodesKey, round, err, q.nodes)
			}
		}
		if len(q.conds) > maxConds || CheckConds(q.conds, n) != nil {
			t.Fatalf("accepted conditions %v", q.conds)
		}
		if q.timeout <= 0 {
			t.Fatalf("accepted timeout %v", q.timeout)
		}
		switch kind {
		case kindFlow, kindCommunity:
			if q.nodes != nil {
				t.Fatalf("a %s query carries nodes %v", paths[kind], q.nodes)
			}
			if kind == kindCommunity && q.top <= 0 {
				t.Fatalf("accepted top %d", q.top)
			}
		case kindImpact:
			if len(q.nodes) == 0 {
				t.Fatal("accepted query has no sources")
			}
			if q.mode != "auto" && q.mode != "analytic" && q.mode != "sampled" {
				t.Fatalf("accepted mode %q", q.mode)
			}
			if q.mode == "analytic" && len(q.conds) > 0 {
				t.Fatalf("accepted cond %q under mode=analytic", q.condKey)
			}
		case kindMaximize:
			if q.k <= 0 || q.k > n {
				t.Fatalf("accepted k %d outside [1, %d]", q.k, n)
			}
			if q.roots <= 0 || q.roots%64 != 0 {
				t.Fatalf("accepted roots %d (want a positive multiple of 64)", q.roots)
			}
			if q.opts.Samples <= 0 || q.opts.Samples*q.roots > maxSketchSets {
				t.Fatalf("accepted pool %d x %d past the %d-set budget", q.opts.Samples, q.roots, maxSketchSets)
			}
		}
		if kind != kindMaximize && (q.opts.Samples <= 0 || q.opts.Samples > s.cfg.MaxSamples) {
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
