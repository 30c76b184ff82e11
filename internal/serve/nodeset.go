package serve

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"infoflow/internal/graph"
)

// readNodes is the one node-list reader, behind parseNodeSet. It splits
// a comma-separated list ("3,1,7") on its commas, trims the space around
// each id and parses it at graph.NodeID's 32 bits, as in readConds, so
// an oversized id is an error, never a wrap; a negative one is refused.
// An empty or all-space list is no ids.
func readNodes(s string) ([]graph.NodeID, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	ids := make([]graph.NodeID, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("source %q: %w", part, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("source %d: must be non-negative", v)
		}
		ids = append(ids, graph.NodeID(v))
	}
	return ids, nil
}

// parseNodeSet parses the node list named param for a model of n nodes
// into canonical sorted-distinct form and its key. The answers that read
// a set depend on the SET, so "3,1,3" and "1,3" share a lane and a cache
// line. A parse error anywhere in the list is reported before an id out
// of range, and the first such id in list order is the one reported. A
// list is canonical, as the server's own responses echo it, exactly when
// it equals its key. An empty list parses to an empty set; whether it is
// allowed is the caller's call. Only a cache miss reads its list
// (query.readList).
func parseNodeSet(raw, param string, n int) ([]graph.NodeID, string, *httpError) {
	nodes, err := readNodes(raw)
	if err != nil {
		return nil, "", badRequest("%s: %v", param, err)
	}
	for _, v := range nodes {
		if int(v) >= n {
			return nil, "", badRequest("%s: node %d out of range [0, %d)", param, v, n)
		}
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
