package serve

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// refParseSources is the node-list parser readNodes replaced: split on
// commas, trim, then strconv.ParseInt per token. It is the reference
// the one-pass reader must answer like, error text included.
func refParseSources(s string) ([]graph.NodeID, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]graph.NodeID, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("source %q: %w", part, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("source %d: must be non-negative", v)
		}
		out = append(out, graph.NodeID(v))
	}
	return out, nil
}

// refSourcesKey is the key renderer sourcesKey replaced: an Itoa per id,
// joined.
func refSourcesKey(sources []graph.NodeID) string {
	parts := make([]string, len(sources))
	for i, v := range sources {
		parts[i] = strconv.Itoa(int(v))
	}
	return strings.Join(parts, ",")
}

// refParseNodeSet is the node-set pipeline parseNodeSet replaced: parse,
// range-check, deduplicate through an n-entry membership array, sort,
// render the key.
func refParseNodeSet(raw, param string, n int) ([]graph.NodeID, string, *httpError) {
	nodes, err := refParseSources(raw)
	if err != nil {
		return nil, "", badRequest("%s: %v", param, err)
	}
	for _, v := range nodes {
		if int(v) < 0 || int(v) >= n {
			return nil, "", badRequest("%s: node %d out of range [0, %d)", param, v, n)
		}
	}
	distinct, _ := core.DedupSources(n, nodes)
	sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })
	return distinct, refSourcesKey(distinct), nil
}

// sameAsReference checks parseNodeSet and ParseSources on raw against
// the reference pipeline: the same nodes, key and error, status and
// text.
func sameAsReference(t *testing.T, raw string, n int) {
	t.Helper()
	nodes, key, herr := parseNodeSet(raw, "community", n)
	wnodes, wkey, wherr := refParseNodeSet(raw, "community", n)
	switch {
	case (herr == nil) != (wherr == nil):
		t.Fatalf("%q (n=%d): error %v, reference %v", raw, n, herr, wherr)
	case herr != nil && (herr.status != wherr.status || herr.msg != wherr.msg):
		t.Fatalf("%q (n=%d): error %d %q, reference %d %q", raw, n, herr.status, herr.msg, wherr.status, wherr.msg)
	case !slices.Equal(nodes, wnodes) || key != wkey:
		t.Fatalf("%q (n=%d): nodes %v key %q, reference %v %q", raw, n, nodes, key, wnodes, wkey)
	}
	ids, err := ParseSources(raw)
	wids, werr := refParseSources(raw)
	if fmt.Sprint(err) != fmt.Sprint(werr) || !slices.Equal(ids, wids) {
		t.Fatalf("ParseSources(%q) = %v, %v; reference %v, %v", raw, ids, err, wids, werr)
	}
}

// nodeToken returns one list token for a model of n nodes, in a form
// drawn from every shape a client may send: plain in-range ids most
// often, then ids at or past n, at or past 2^31, signed, zero-padded,
// spaced, empty and malformed tokens.
func nodeToken(r *rng.RNG, n int) string {
	id := r.Intn(n)
	switch r.Intn(20) {
	case 0:
		return strconv.Itoa(n + r.Intn(3))
	case 1:
		return [...]string{"2147483647", "2147483648", "4294967297", "99999999999", "-2147483649"}[r.Intn(5)]
	case 2:
		return "+" + strconv.Itoa(id)
	case 3:
		return [...]string{"-1", "-0", "+0", "-" + strconv.Itoa(id)}[r.Intn(4)]
	case 4:
		return "0" + strconv.Itoa(id)
	case 5:
		return [...]string{" ", "\t", " ", ""}[r.Intn(4)] + strconv.Itoa(id) + [...]string{" ", "", "\n"}[r.Intn(3)]
	case 6:
		return ""
	case 7:
		return [...]string{"x", "3x", "0x1f", "1_0", "1e3", "٣", "+", "-", " "}[r.Intn(9)]
	default:
		return strconv.Itoa(id)
	}
}

// TestParseNodeSetMatchesReference: on generated lists of every form
// (canonical, unsorted, duplicated, spaced, signed, zero-padded, with
// empty tokens or a trailing comma, with ids past n or past 2^31)
// parseNodeSet and ParseSources answer exactly as the pipeline they
// replaced: the same nodes, key and error text.
func TestParseNodeSetMatchesReference(t *testing.T) {
	for _, raw := range []string{
		"", " ", "\t\n", ",", "1,", ",1", "1,,2", "0", "00", "01", "+3", "-1", "-0", "3,1,3", "1,3",
		" 1 , 3 ", "2147483647", "2147483648", "4294967297", "9999999999", "12345678901", "1,2,4294967297",
		"99,x", "x,99", "7,99,-1", "0,1,2,3,4", "0,1,1,2", "4,3,2,1,0",
	} {
		for _, n := range []int{1, 5, 100, 6000} {
			sameAsReference(t, raw, n)
		}
	}
	r := rng.New(23)
	for trial := 0; trial < 20000; trial++ {
		n := 1 + r.Intn(2000)
		size := 1 + r.Intn(12)
		if trial%10 == 0 {
			size = 1 + r.Intn(600)
		}
		var raw string
		switch trial % 4 {
		case 0: // canonical: strictly increasing plain ids
			idx := r.Sample(n, min(size, n))
			sort.Ints(idx)
			raw = refSourcesKey(nodesOf(idx))
		case 1: // plain ids, unsorted and duplicated
			idx := make([]int, size)
			for i := range idx {
				idx[i] = r.Intn(n)
			}
			raw = refSourcesKey(nodesOf(idx))
		default: // any token form
			toks := make([]string, size)
			for i := range toks {
				toks[i] = nodeToken(r, n)
			}
			raw = strings.Join(toks, ",")
			if r.Intn(8) == 0 {
				raw += ","
			}
		}
		sameAsReference(t, raw, n)
	}
}

func nodesOf(idx []int) []graph.NodeID {
	out := make([]graph.NodeID, len(idx))
	for i, v := range idx {
		out[i] = graph.NodeID(v)
	}
	return out
}

// TestParseNodeSetCanonicalIsItsOwnKey: a canonical list keys as the
// very string it arrived in, with no copy, and costs one allocation (the
// node slice) however long it is; a non-canonical one is rendered once.
func TestParseNodeSetCanonicalIsItsOwnKey(t *testing.T) {
	idx := rng.New(5).Sample(6000, 500)
	sort.Ints(idx)
	raw := refSourcesKey(nodesOf(idx))
	nodes, key, herr := parseNodeSet(raw, "community", 6000)
	if herr != nil || len(nodes) != 500 || key != raw || unsafe.StringData(key) != unsafe.StringData(raw) {
		t.Fatalf("canonical list: %d nodes, key shares the raw value %v, error %v",
			len(nodes), unsafe.StringData(key) == unsafe.StringData(raw), herr)
	}
	if allocs := testing.AllocsPerRun(100, func() { parseNodeSet(raw, "community", 6000) }); allocs != 1 {
		t.Errorf("canonical list: %v allocations per parse, want 1", allocs)
	}
	spaced := strings.ReplaceAll(raw, ",", ", ")
	if allocs := testing.AllocsPerRun(100, func() { parseNodeSet(spaced, "community", 6000) }); allocs != 2 {
		t.Errorf("spaced list: %v allocations per parse, want 2 (nodes, key)", allocs)
	}
	if _, key, _ := parseNodeSet(spaced, "community", 6000); key != raw {
		t.Errorf("spaced list keys as %.40q..., want the canonical %.40q...", key, raw)
	}
}
