package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"
)

// FuzzParseQuery hammers the one query parser over all four endpoints.
// kind picks the endpoint (mod 4: /flow, /community, /impact,
// /maximize); first and second fill its own two parameters (source and
// sink; source and top; sources and mode; k and community), and roots
// reaches /maximize only. For arbitrary strings parseQuery must either
// reject with a 4xx *httpError or return a query of the asked kind that
// holds every bound it promises — nodes in range; a node set strictly
// sorted, distinct and keyed by its canonical rendering, the list a body
// echoes; a budget, top, mode, sample count and pool within their
// limits; at most maxConds in-range conditions, none under
// mode=analytic; a positive timeout — and must never panic. The node list of /impact and
// /maximize must also parse exactly as the pipeline parseNodeSet
// replaced (see sameAsReference). Seeds #16 on are node lists in the
// forms that are not their own key (signed, zero-padded, spaced,
// duplicated, unsorted, with empty tokens or ids past n or 2^31), and
// one canonical list that is. raw is appended to the encoded query as it
// is, so its pairs fill the parameters the others leave out, and the
// one-pass reader must read every name from it as
// url.ParseQuery(raw).Get(name) does (see sameParams). Seeds #25 on are
// raw queries with escaped keys, '+', bad escapes, ';', repeated keys
// and empty pairs.
//
// parseQuery keeps a node list unread, so a parsed query is looked up
// as its request would be: a miss reads the list, and a hit on an
// unread list must be on one that reads to itself. The properties above
// hold once the list is read. The server caches one /maximize pool over
// {2, 5} first, and seeds #32 on are a canonical list out of range, that
// list in canonical and in non-canonical form, and bad lists beside bad
// later parameters.
func FuzzParseQuery(f *testing.F) {
	s, err := NewServer(Config{Models: []Model{{Name: "m", ICM: serveDAG(5, 12, 25)}}})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Drain()
	if rec := serveDirect(s, "/maximize?k=1&community=2,5&samples=1&roots=64"); rec.Code != http.StatusOK {
		f.Fatalf("caching a pool: status %d: %s", rec.Code, rec.Body)
	}
	f.Add(uint8(kindImpact), "0", "", "", "", "", "", "", "")
	f.Add(uint8(kindImpact), "3,1,3", "auto", "1>2=1", "500", "", "9", "", "")
	f.Add(uint8(kindImpact), " 2 , 5 ", "analytic", "", "", "", "", "", "")
	f.Add(uint8(kindImpact), "1,2,4", "sampled", "0>1=0,2>3=1", "50000", "", "18446744073709551615", "", "")
	f.Add(uint8(kindImpact), "-1", "psychic", "x", "-5", "", "boom", "", "")
	f.Add(uint8(kindImpact), "9999999999999999999999", "", "", "", "", "", "", "")
	f.Add(uint8(kindMaximize), "1", "", "", "", "", "", "", "")
	f.Add(uint8(kindMaximize), "3", "2,0,2", "1>2=1", "64", "256", "9", "", "")
	f.Add(uint8(kindMaximize), " 5 ", " 1 , 4 ", "", "", "64", "", "", "")
	f.Add(uint8(kindMaximize), "12", "0,1,2,3", "0>1=0,2>3=1", "256", "256", "18446744073709551615", "", "")
	f.Add(uint8(kindMaximize), "-1", "-3", "x", "-5", "100", "boom", "", "")
	f.Add(uint8(kindMaximize), "9999999999999999999999", "", "", "1000000", "1024", "", "", "")
	f.Add(uint8(kindFlow), "0", "11", "3>4=1", "100", "", "7", "2s", "")
	f.Add(uint8(kindFlow), "12", "-1", "", "0", "", "", "-1s", "")
	f.Add(uint8(kindCommunity), "4", "3", "2>2=0", "", "", "", "", "")
	f.Add(uint8(kindCommunity), " 4", "99999999999999999999", "", "60000", "64", "", "1h", "")
	f.Add(uint8(kindImpact), "+3,01, 2", "auto", "", "", "", "", "", "")
	f.Add(uint8(kindImpact), "1,,2", "", "", "", "", "", "", "")
	f.Add(uint8(kindImpact), "3,", "sampled", "", "", "", "", "", "")
	f.Add(uint8(kindImpact), "2147483648,1", "", "", "", "", "", "", "")
	f.Add(uint8(kindMaximize), "2", "5,3,5,+1", "", "", "", "", "", "")
	f.Add(uint8(kindMaximize), "2", "-1,4", "", "", "", "", "", "")
	f.Add(uint8(kindMaximize), "2", "1, 2 ,00", "", "", "", "", "", "")
	f.Add(uint8(kindMaximize), "2", "4,12", "", "", "", "", "", "")
	f.Add(uint8(kindMaximize), "1", "0,1,2,3,4,5,6,7,8,9,10,11", "", "", "", "", "", "")
	f.Add(uint8(kindFlow), "", "", "", "", "", "", "", "mod%65l=m&sour%63e=0&sink=1")
	f.Add(uint8(kindFlow), "0", "", "", "", "", "", "", "sink=%zz&sink=3&sink=4")
	f.Add(uint8(kindFlow), "", "", "", "", "", "", "", "source=1;sink=2&source=2&&sink=3&")
	f.Add(uint8(kindImpact), "", "", "", "", "", "", "", "sources=1%2C2+&mode=sampl%65d&seed=%2B5&seed=6")
	f.Add(uint8(kindMaximize), "", "", "", "", "", "", "", "k=2&community=1,2,3&community=4&cond=0%3E1%3D0&timeout=1s%")
	f.Add(uint8(kindCommunity), "2", "", "", "", "", "", "", "top=3&to%p=4&=5&top&k+=1&%20top=2&samples=+5")
	f.Add(uint8(kindImpact), "", "", "", "", "", "", "", "sources&sources=0&mode=&mode=analytic")
	f.Add(uint8(kindImpact), "5,12", "sampled", "", "", "", "", "", "")
	f.Add(uint8(kindMaximize), "1", "2,5", "", "1", "64", "", "", "")
	f.Add(uint8(kindMaximize), "2", "5,2,5", "", "1", "64", "", "", "")
	f.Add(uint8(kindMaximize), "1", " 2,05", "", "1", "64", "", "", "")
	f.Add(uint8(kindMaximize), "2", "4,99", "x", "0", "", "", "", "")
	f.Add(uint8(kindImpact), "3,-2", "psychic", "", "", "", "", "", "")
	f.Fuzz(func(t *testing.T, kindByte uint8, first, second, cond, samples, roots, seed, timeout, raw string) {
		sameParams(t, raw)
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
		if raw != "" {
			req.URL.RawQuery += "&" + raw
		}
		q, herr := s.parseQuery(req, kind)
		if herr == nil {
			raw := q.nodesKey
			var cached bool
			if _, cached, _, herr = s.lookup(q, (*query).appendCacheKey); herr == nil && cached && q.unread {
				if herr = q.readList(); herr != nil || q.nodesKey != raw {
					t.Fatalf("a hit on the unread list %q, which reads to %q (%v)", raw, q.nodesKey, herr)
				}
			}
		}
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
			round, err := readNodes(q.nodesKey)
			if err != nil || !slices.Equal(round, q.nodes) {
				t.Fatalf("nodesKey %q round-trips to %v (%v), want %v", q.nodesKey, round, err, q.nodes)
			}
			// Bodies echo the key as the list, so it must be the list's
			// canonical rendering byte for byte.
			if want := sourcesKey(q.nodes); q.nodesKey != want {
				t.Fatalf("nodesKey %q is not the canonical rendering %q", q.nodesKey, want)
			}
		}
		if len(q.conds) > maxConds || checkConds(q.conds, n) != nil {
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

// FuzzServeLists holds the key-first cache read to the path it replaced.
// Each generated /impact or /maximize request is served three times on
// one fresh server: cold, warm, and through serveEager, which reads the
// node list before it looks anything up. kind picks the endpoint (bit
// 0) and the model (bit 1: a DAG, whose laws are exact, or a cyclic
// model, whose auto-mode laws fall back to sampling); list fills
// sources or community and other mode or k. raw is appended to the
// query as it is, as in FuzzParseQuery. The warm and eager asks must
// agree byte for byte, and the cold ask with them in its status and, up
// to cached and the batch fields, its body. Each ask counts at most one
// cache hit or miss, exactly one when it succeeds, a hit exactly when
// its body says cached, and the warm and eager asks count alike.
// Deadlines under a minute could expire on one ask and not another, so
// they are skipped.
func FuzzServeLists(f *testing.F) {
	models := []Model{{Name: "dag", ICM: serveDAG(5, 12, 25)}, {Name: "cyclic", ICM: serveICM(3, 20, 60)}}
	f.Add(uint8(0), "3,1,3", "", "", "", "", "", "")
	f.Add(uint8(0), "1,3", "sampled", "", "20", "", "9", "")
	f.Add(uint8(0), "4,12", "auto", "", "", "", "", "")
	f.Add(uint8(0), "7,99,-1", "psychic", "x", "", "", "", "")
	f.Add(uint8(0), " 2 , 5 ", "analytic", "1>2=1", "", "", "", "")
	f.Add(uint8(2), "0,3", "", "", "30", "", "4", "")
	f.Add(uint8(2), "3", "analytic", "", "", "", "", "")
	f.Add(uint8(2), "5,3,5", "sampled", "0>5=1", "25", "", "", "")
	f.Add(uint8(1), "1,4,6,9", "2", "", "", "", "5", "")
	f.Add(uint8(1), "9,4,1,6,4", "3", "0>11=0", "", "", "", "")
	f.Add(uint8(1), "4,12", "2", "", "", "", "", "")
	f.Add(uint8(1), "99", "2", "x", "", "", "", "")
	f.Add(uint8(1), "99", "0", "x", "", "", "", "")
	f.Add(uint8(1), " ", "2", "", "0", "", "", "")
	f.Add(uint8(1), "1|2", "1", "", "", "", "", "")
	f.Add(uint8(3), "0,5,19", "4", "", "8", "128", "", "")
	f.Add(uint8(3), "19,0,5", "1", "", "8", "100", "x", "")
	f.Add(uint8(1), "", "", "", "", "", "", "k=2&community=3%2C1&community=4&seed=%2B5")
	f.Add(uint8(0), "", "", "", "", "", "", "sources=1%2C2+&mode=sampl%65d&samples=9&sources=3")
	f.Add(uint8(1), "", "", "", "", "", "", "k=1&community=2%7C3&cond=0%3E1%3D0")
	f.Fuzz(func(t *testing.T, kindByte uint8, list, other, cond, samples, roots, seed, raw string) {
		kind, params := kindImpact, [2]string{"sources", "mode"}
		if kindByte&1 == 1 {
			kind, params = kindMaximize, [2]string{"community", "k"}
		}
		vals := url.Values{"model": {models[kindByte>>1&1].Name}}
		for name, v := range map[string]string{
			params[0]: list, params[1]: other,
			"cond": cond, "samples": samples, "roots": roots, "seed": seed,
		} {
			if v != "" {
				vals.Set(name, v)
			}
		}
		target := map[queryKind]string{kindImpact: "/impact", kindMaximize: "/maximize"}[kind] + "?" + vals.Encode()
		if raw != "" {
			target += "&" + raw
		}
		request := func() *http.Request {
			r := httptest.NewRequest(http.MethodGet, "/", nil)
			r.URL.Path, r.URL.RawQuery, _ = strings.Cut(target, "?")
			return r
		}
		if d, err := time.ParseDuration(readParams(request().URL.RawQuery)[pTimeout]); err == nil && d > 0 && d < time.Minute {
			t.Skip()
		}
		s, err := NewServer(Config{Models: models, Window: time.Microsecond, DefaultSamples: 40, MaxSamples: 400})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Drain()
		type reply struct {
			status       int
			body         string
			hits, misses int64
		}
		ask := func(serve func(http.ResponseWriter, *http.Request)) reply {
			h0, m0 := s.metrics.CacheHits.Load(), s.metrics.CacheMisses.Load()
			rec := httptest.NewRecorder()
			serve(rec, request())
			return reply{rec.Code, rec.Body.String(), s.metrics.CacheHits.Load() - h0, s.metrics.CacheMisses.Load() - m0}
		}
		cold := ask(s.Handler().ServeHTTP)
		warm := ask(s.Handler().ServeHTTP)
		eager := ask(func(w http.ResponseWriter, r *http.Request) { serveEager(s, w, r, kind) })
		for _, r := range []struct {
			name string
			reply
		}{{"cold", cold}, {"warm", warm}, {"eager", eager}} {
			counted := r.hits + r.misses
			if counted > 1 || r.status == http.StatusOK && counted != 1 ||
				(r.hits == 1) != (r.status == http.StatusOK && strings.Contains(r.body, `"cached":true`)) {
				t.Fatalf("%s: %s ask counted %d hits and %d misses for %d %s", target, r.name, r.hits, r.misses, r.status, r.body)
			}
		}
		if warm != eager {
			t.Fatalf("%s: the warm ask and the eager reference differ:\nwarm  %+v\neager %+v", target, warm, eager)
		}
		if cold.status != warm.status || cold.hits+cold.misses != warm.hits+warm.misses {
			t.Fatalf("%s: cold ask %+v, warm ask %+v", target, cold, warm)
		}
		if cold.status != http.StatusOK {
			if cold.body != warm.body {
				t.Fatalf("%s: cold and warm errors differ:\ncold %s\nwarm %s", target, cold.body, warm.body)
			}
			return
		}
		if strings.Contains(warm.body, `"cached":true`) {
			sameCachedBodies(t, target, []byte(cold.body), []byte(warm.body))
		} else if cold.body != warm.body {
			t.Fatalf("%s: an answer computed twice differs:\ncold %s\nwarm %s", target, cold.body, warm.body)
		}
	})
}

// serveEager serves r as flowserve did while every node list was read
// as its query was parsed, before any cache lookup: the reference
// FuzzServeLists holds the key-first path to. Its lookups therefore
// always run under the canonical key.
func serveEager(s *Server, w http.ResponseWriter, r *http.Request, kind queryKind) {
	q, herr := s.parseQuery(r, kind)
	if herr == nil {
		herr = q.readList()
	}
	var res flowResult
	if herr == nil && kind == kindImpact {
		res, herr = s.analyticImpact(q)
	}
	if herr == nil && res.Answer == nil {
		res, herr = s.answer(r, q)
	}
	switch {
	case herr != nil:
		writeError(w, herr)
	case kind == kindImpact:
		s.writeImpact(w, q, res)
	default:
		s.writeMaximize(w, q, res)
	}
}

// sameParams fails t unless readParams reads every parameter of raw as
// url.ParseQuery(raw).Get(name) does.
func sameParams(t *testing.T, raw string) {
	t.Helper()
	got := readParams(raw)
	want, _ := url.ParseQuery(raw)
	for i, name := range paramNames {
		if got[i] != want.Get(name) {
			t.Fatalf("%q: read %s=%q, url.ParseQuery has %q", raw, name, got[i], want.Get(name))
		}
	}
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
		conds, err := readConds(raw)
		if err != nil {
			return
		}
		want, key, werr := canonicalConds(conds)
		if werr == nil {
			round, err := readConds(key)
			if err != nil || !slices.Equal(round, want) {
				t.Fatalf("key %q re-parses to %v (%v), want %v", key, round, err, want)
			}
		}
		orderings(strings.Split(raw, ","), func(parts []string) {
			joined := strings.Join(parts, ",")
			perm, err := readConds(joined)
			if err != nil {
				t.Fatalf("%q parses but its reordering %q does not: %v", raw, joined, err)
			}
			got, gkey, gerr := canonicalConds(perm)
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
