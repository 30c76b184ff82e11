package graph

import "infoflow/internal/bitset"

// StronglyConnectedComponents returns Tarjan's SCC decomposition: a
// component label per node (labels dense in [0, count), in reverse
// topological order of the condensation: an edge between components
// always goes from a higher label to a lower one) and the component
// count. It is the lane sweep's condensation pass run from every node,
// in node order, over every edge.
//
// SCCs matter for flow analysis: within a strongly connected component
// every pair of nodes can exchange information, so component structure
// bounds which end-to-end flows are possible at all, and the
// condensation is the natural unit for coarse leakage audits.
func (g *DiGraph) StronglyConnectedComponents() (labels []int, count int) {
	n := g.NumNodes()
	roots := make([]NodeID, n)
	for v := range roots {
		roots[v] = NodeID(v)
	}
	all := bitset.New(g.NumEdges())
	for i := range all {
		all[i] = ^uint64(0)
	}
	comp, _, starts := g.condenseInto(roots, false, all, NewScratch(n), nil, nil, nil)
	labels = make([]int, n)
	for v, c := range comp {
		labels[v] = int(c)
	}
	return labels, len(starts) - 1
}

// CondensedDAG returns the condensation of the graph: one node per
// strongly connected component, with an edge between components
// whenever any original edge crosses them. It is always acyclic.
func (g *DiGraph) CondensedDAG() (dag *DiGraph, labels []int) {
	labels, count := g.StronglyConnectedComponents()
	dag = New(count)
	for _, e := range g.edges {
		a, b := labels[e.From], labels[e.To]
		if a != b && !dag.HasEdge(NodeID(a), NodeID(b)) {
			dag.MustAddEdge(NodeID(a), NodeID(b))
		}
	}
	return dag, labels
}
