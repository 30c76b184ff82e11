package graph

// StronglyConnectedComponents returns Tarjan's SCC decomposition: a
// component label per node (labels dense in [0, count), in reverse
// topological order of the condensation: an edge between components
// always goes from a higher label to a lower one) and the component
// count. The DFS starts from every unvisited node in node order and is
// iterative, so deep graphs cannot overflow the goroutine stack.
//
// SCCs matter for flow analysis: within a strongly connected component
// every pair of nodes can exchange information, so component structure
// bounds which end-to-end flows are possible at all, and the
// condensation is the natural unit for coarse leakage audits.
func (g *DiGraph) StronglyConnectedComponents() (labels []int, count int) {
	n := g.NumNodes()
	labels = make([]int, n)
	idx := make([]int32, n) // discovery index, -1 = unvisited
	low := make([]int32, n) // Tarjan lowlink
	onStack := make([]bool, n)
	for i := range idx {
		idx[i] = -1
	}
	var tstack []NodeID // Tarjan's SCC stack
	var dfsN []NodeID   // DFS stack: frame f visits node dfsN[f]
	var dfsE []int32    // ... with edge cursor dfsE[f] into g.out[dfsN[f]]
	var next int32
	for root := NodeID(0); int(root) < n; root++ {
		if idx[root] != -1 {
			continue
		}
		idx[root], low[root] = next, next
		next++
		onStack[root] = true
		tstack = append(tstack, root)
		dfsN = append(dfsN, root)
		dfsE = append(dfsE, 0)
		for len(dfsN) > 0 {
			f := len(dfsN) - 1
			v := dfsN[f]
			if ei := dfsE[f]; int(ei) < len(g.out[v]) {
				dfsE[f]++
				w := g.edges[g.out[v][ei]].To
				if idx[w] == -1 {
					idx[w], low[w] = next, next
					next++
					onStack[w] = true
					tstack = append(tstack, w)
					dfsN = append(dfsN, w)
					dfsE = append(dfsE, 0)
				} else if onStack[w] && low[v] > idx[w] {
					low[v] = idx[w]
				}
				continue
			}
			dfsN = dfsN[:f]
			dfsE = dfsE[:f]
			if f > 0 {
				if p := dfsN[f-1]; low[p] > low[v] {
					low[p] = low[v]
				}
			}
			if low[v] == idx[v] {
				for {
					w := tstack[len(tstack)-1]
					tstack = tstack[:len(tstack)-1]
					onStack[w] = false
					labels[w] = count
					if w == v {
						break
					}
				}
				count++
			}
		}
	}
	return labels, count
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
