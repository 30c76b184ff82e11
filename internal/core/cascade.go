package core

import (
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// Cascade is one realised active-state of an information object,
// annotated with everything the training and evaluation procedures need:
// which nodes and edges became i-active, which edges were tried (had an
// i-active parent, whether or not the information traversed them), when
// each node activated, and which parent is attributed with each
// activation.
type Cascade struct {
	Sources []graph.NodeID

	// ActiveNodes[v] reports whether v is i-active (in V_i).
	ActiveNodes []bool

	// ActiveEdges[e] reports whether e is i-active (in E_i): its parent
	// is active and the information traversed it.
	ActiveEdges []bool

	// TriedEdges[e] reports whether e's parent is i-active, i.e. the
	// edge's Bernoulli trial happened. Active-states record exactly the
	// tried edges (active or not); untried edges are unobserved.
	TriedEdges []bool

	// Round[v] is the BFS round at which v activated (0 for sources), or
	// -1 if v never activated. Saito et al.'s original estimator consumes
	// these discrete activation times.
	Round []int

	// Parent[v] is the attributed cause of v's activation: the node whose
	// edge first delivered the object to v. Sources and inactive nodes
	// have -1. When several parents deliver in the same round, the
	// lowest-EdgeID edge wins, matching "first seen" attribution.
	Parent []graph.NodeID
}

// NumActive returns the number of i-active nodes.
func (c *Cascade) NumActive() int {
	n := 0
	for _, a := range c.ActiveNodes {
		if a {
			n++
		}
	}
	return n
}

// NumNewlyActive returns the number of i-active nodes that are not
// sources — the "impact" statistic of §IV-D (how many users retweeted).
func (c *Cascade) NumNewlyActive() int {
	n := c.NumActive()
	seen := map[graph.NodeID]bool{}
	for _, s := range c.Sources {
		if !seen[s] {
			seen[s] = true
			n--
		}
	}
	return n
}

// SampleCascade simulates the independent cascade process from the given
// sources: each edge leaving an i-active node is tried exactly once, in
// BFS rounds, succeeding with its activation probability. The lazy
// edge-sampling is distributionally identical to drawing a full
// pseudo-state and deriving the active-state, but touches only edges with
// active parents.
func (m *ICM) SampleCascade(r *rng.RNG, sources []graph.NodeID) *Cascade {
	return m.walk(sources, r, nil)
}

// CascadeFromPseudoState derives the active-state annotation for sources
// under a fully specified pseudo-state (the x |-> s map of §III-A).
// Rounds and parents come from BFS over the active edges.
func (m *ICM) CascadeFromPseudoState(sources []graph.NodeID, x PseudoState) *Cascade {
	return m.walk(sources, nil, x)
}

// walk is the one cascade walk of §III-A, behind SampleCascade and
// CascadeFromPseudoState. It tries every edge leaving an i-active node
// exactly once, in BFS rounds and out-edge order. A tried edge fires by
// one Bernoulli draw from r when r is non-nil, and by its bit in x
// otherwise.
func (m *ICM) walk(sources []graph.NodeID, r *rng.RNG, x PseudoState) *Cascade {
	n, me := m.NumNodes(), m.NumEdges()
	c := &Cascade{
		Sources:     append([]graph.NodeID(nil), sources...),
		ActiveNodes: make([]bool, n),
		ActiveEdges: make([]bool, me),
		TriedEdges:  make([]bool, me),
		Round:       make([]int, n),
		Parent:      make([]graph.NodeID, n),
	}
	for v := range c.Round {
		c.Round[v] = -1
		c.Parent[v] = -1
	}
	frontier := make([]graph.NodeID, 0, len(sources))
	for _, s := range sources {
		if !c.ActiveNodes[s] {
			c.ActiveNodes[s] = true
			c.Round[s] = 0
			frontier = append(frontier, s)
		}
	}
	round := 0
	for len(frontier) > 0 {
		round++
		var next []graph.NodeID
		for _, v := range frontier {
			for _, id := range m.G.OutEdges(v) {
				c.TriedEdges[id] = true
				var fired bool
				if r != nil {
					fired = r.Bernoulli(m.P[id])
				} else {
					fired = x.Test(int(id))
				}
				if !fired {
					continue
				}
				c.ActiveEdges[id] = true
				w := m.G.Edge(id).To
				if !c.ActiveNodes[w] {
					c.ActiveNodes[w] = true
					c.Round[w] = round
					c.Parent[w] = v
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return c
}
