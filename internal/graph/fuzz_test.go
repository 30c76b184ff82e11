package graph_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"infoflow/internal/bitset"
	"infoflow/internal/graph"
)

// fuzzNodeLimit skips inputs whose declared node count would make the
// decoder allocate adjacency structures wildly out of proportion to the
// input size — a memory-amplification hazard, not a parsing bug.
const fuzzNodeLimit = 1 << 16

// declaredNodes probes data for a "nodes" field without building the
// graph. A probe error means the real decoder fails before allocating,
// so the input is safe to hand over either way.
func declaredNodes(data []byte) (int64, bool) {
	var probe struct {
		Nodes int64 `json:"nodes"`
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&probe); err != nil {
		return 0, false
	}
	return probe.Nodes, true
}

// FuzzReadRoundTrip asserts that graph.Read never panics and that every
// accepted input reaches an encode/decode fixed point: the first
// re-encoding is canonical, so decoding and encoding it again must
// reproduce it byte for byte.
func FuzzReadRoundTrip(f *testing.F) {
	seed := func(g *graph.DiGraph) {
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(graph.New(0))
	seed(graph.Path(4))
	seed(graph.Complete(3))
	f.Add([]byte(`{"nodes":3,"edges":[[0,1],[1,2],[2,0]]}`))
	f.Add([]byte(`{"nodes":-1}`))
	f.Add([]byte(`{"nodes":2,"edges":[[0,5]]}`))
	f.Add([]byte(`{"nodes":1e99}`))
	f.Add([]byte(`{"nodes":`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if n, ok := declaredNodes(data); ok && (n < 0 || n > fuzzNodeLimit) {
			t.Skip("node count out of fuzzing bounds")
		}
		g, err := graph.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc1 bytes.Buffer
		if err := g.Write(&enc1); err != nil {
			t.Fatalf("encode accepted graph: %v", err)
		}
		g2, err := graph.Read(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("re-decode own encoding: %v\nencoding: %s", err, enc1.Bytes())
		}
		var enc2 bytes.Buffer
		if err := g2.Write(&enc2); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("encode/decode not a fixed point:\nfirst:  %s\nsecond: %s", enc1.Bytes(), enc2.Bytes())
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("shape drift: %d/%d nodes, %d/%d edges",
				g.NumNodes(), g2.NumNodes(), g.NumEdges(), g2.NumEdges())
		}
	})
}

// FuzzReachLanes checks the lane sweep in both orientations against the
// closure Reachable. The input decodes as: a header byte giving the
// node count (1..24), a byte whose low bit picks the orientation and
// whose upper bits the width W (1..3 words), a seed count (0..31), two
// bytes per seed (node, lane), then (u, v, active) triples adding edge
// u->v to the graph (duplicates and self-loops are skipped) and to the
// edge mask when active is odd. Every lane must reach exactly what
// Reachable reaches from the nodes seeded with it: on the graph forward,
// on its transpose in reverse.
func FuzzReachLanes(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 0, 0, 1, 1, 1, 2, 1, 2, 3, 1})
	f.Add([]byte{4, 1, 1, 3, 5, 0, 1, 1, 1, 2, 1, 2, 3, 1})
	f.Add([]byte{6, 3, 3, 0, 0, 5, 0, 2, 64, 0, 1, 1, 1, 2, 1, 2, 0, 1, 3, 4, 0, 4, 5, 1, 5, 3, 1})
	f.Add([]byte{24, 5, 2, 7, 130, 7, 3, 7, 8, 1, 8, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, reverse, words := 1+int(data[0])%24, data[1]&1 == 1, 1+int(data[1]>>1)%3
		k := int(data[2]) % 32
		data = data[3:]
		if len(data) < 2*k {
			return
		}
		seeds := make([]graph.NodeID, k)
		seedBits := bitset.NewLaneMatrix(k, words)
		byLane := make([][]graph.NodeID, 64*words)
		for i := range seeds {
			seeds[i] = graph.NodeID(int(data[2*i]) % n)
			lane := int(data[2*i+1]) % (64 * words)
			seedBits.SetBit(i, lane)
			byLane[lane] = append(byLane[lane], seeds[i])
		}
		data = data[2*k:]
		g := graph.New(n)
		var on []bool
		for ; len(data) >= 3; data = data[3:] {
			if _, err := g.AddEdge(graph.NodeID(int(data[0])%n), graph.NodeID(int(data[1])%n)); err == nil {
				on = append(on, data[2]%2 == 1)
			}
		}
		active := bitset.New(g.NumEdges())
		for id, a := range on {
			if a {
				active.Set(id)
			}
		}
		ref := g
		reach := &bitset.LaneMatrix{}
		if reverse {
			ref = graph.New(n)
			for _, e := range g.Edges() {
				if _, err := ref.AddEdge(e.To, e.From); err != nil {
					t.Fatalf("transpose: %v", err)
				}
			}
			g.ReachLanesWideReverseInto(seeds, seedBits, active, graph.NewScratch(0), reach)
		} else {
			g.ReachLanesWideInto(seeds, seedBits, active, graph.NewScratch(0), reach)
		}
		if reach.Rows != n || reach.W != words {
			t.Fatalf("reach is %dx%d, want %dx%d", reach.Rows, reach.W, n, words)
		}
		isActive := func(id graph.EdgeID) bool { return on[id] }
		for lane, srcs := range byLane {
			want := ref.Reachable(srcs, isActive)
			for v := 0; v < n; v++ {
				if got := reach.TestBit(v, lane); got != want[v] {
					t.Fatalf("reverse=%v W=%d lane %d (seeds %v) node %d: sweep %v, Reachable %v",
						reverse, words, lane, srcs, v, got, want[v])
				}
			}
		}
	})
}
