package serve

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"infoflow/internal/graph"
)

// readNodes is the one node-list reader behind ParseSources and
// parseNodeSet. It reads a comma-separated list ("3,1,7") in one pass,
// in place: no token is split out or copied. Whitespace around an id is
// tolerated, and an id parses at graph.NodeID's 32 bits, as in
// ParseConds, so an oversized id is an error, never a wrap. An empty or
// all-space list is no ids.
//
// Besides the ids in list order it returns over, the first id not below
// n (-1 when every id is), and canonical: whether the list is already in
// the form sourcesKey renders, strictly increasing ids in plain decimal
// with no sign, space or leading zero.
func readNodes(s string, n int) (ids []graph.NodeID, over int, canonical bool, err error) {
	over = -1
	if strings.TrimSpace(s) == "" {
		return nil, over, s == "", nil
	}
	ids = make([]graph.NodeID, 0, strings.Count(s, ",")+1)
	canonical = true
	prev := -1
	for start := 0; start <= len(s); {
		// Most ids are plain: up to ten digits, read to the comma.
		end, x := start, 0
		for lim := min(len(s), start+10); end < lim; end++ {
			d := s[end] - '0'
			if d > 9 {
				break
			}
			x = 10*x + int(d)
		}
		plain := end > start && (end == len(s) || s[end] == ',') &&
			(s[start] != '0' || end == start+1) && x <= math.MaxInt32
		if !plain {
			end = len(s)
			if i := strings.IndexByte(s[start:], ','); i >= 0 {
				end = start + i
			}
			tok := s[start:end]
			v, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 32)
			if err != nil {
				return nil, 0, false, fmt.Errorf("source %q: %w", tok, err)
			}
			if v < 0 {
				return nil, 0, false, fmt.Errorf("source %d: must be non-negative", v)
			}
			x = int(v)
		}
		if x >= n && over < 0 {
			over = x
		}
		canonical = canonical && plain && x > prev
		prev = x
		ids = append(ids, graph.NodeID(x))
		start = end + 1
	}
	return ids, over, canonical, nil
}

// ParseSources parses a comma-separated node-id list ("3,1,7") into
// node IDs, in list order. Whitespace around entries is tolerated; an
// empty string is an empty set. Ids are parsed at 32 bits, as in
// ParseConds; range validation is the caller's job (it needs the model).
// Shared with the flowquery CLI.
func ParseSources(s string) ([]graph.NodeID, error) {
	ids, _, _, err := readNodes(s, math.MaxInt)
	return ids, err
}

// parseNodeSet parses the node list named param for a model of n nodes
// into canonical sorted-distinct form and its key. The answers that read
// a set depend on the SET, so "3,1,3" and "1,3" share a lane and a cache
// line. A list already in canonical form, as the server's own responses
// echo it, is its own key: it is read once and neither sorted nor
// copied. An empty list parses to an empty set; whether it is allowed is
// the caller's call.
func parseNodeSet(raw, param string, n int) ([]graph.NodeID, string, *httpError) {
	nodes, over, canonical, err := readNodes(raw, n)
	if err != nil {
		return nil, "", badRequest("%s: %v", param, err)
	}
	if over >= 0 {
		return nil, "", badRequest("%s: node %d out of range [0, %d)", param, over, n)
	}
	if canonical {
		return nodes, raw, nil
	}
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	return nodes, sourcesKey(nodes), nil
}

// sourcesKey renders a canonical (already sorted, distinct) source set
// for batch and cache keys: the ids in decimal, comma-separated, into
// one buffer sized for ids of up to six digits.
func sourcesKey(sources []graph.NodeID) string {
	var b strings.Builder
	b.Grow(7 * len(sources))
	var digits [20]byte
	for i, v := range sources {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(strconv.AppendInt(digits[:0], int64(v), 10))
	}
	return b.String()
}
