package twitter

import (
	"sort"

	"infoflow/internal/graph"
)

// InferredGraph is a flow topology reconstructed purely from message
// syntax, the way the paper builds its network: "the network topology is
// also inferred from the data using the '@' references to indicate
// edges".
type InferredGraph struct {
	// Flow is the inferred graph over the same node ID space as the
	// corpus (0..maxUser; isolated IDs are retained so tweet author IDs
	// remain valid node IDs).
	Flow *graph.DiGraph
	// EdgeObservations counts how many chain links supported each edge
	// (indexed by EdgeID of Flow).
	EdgeObservations []int
}

// InferGraph reconstructs the flow topology from retweet ancestry: every
// adjacent pair in a recovered chain witnesses an edge from the earlier
// poster to the retweeter. numUsers fixes the node-ID space (the corpus
// user count); references outside it are ignored as noise.
func InferGraph(tweets []Tweet, numUsers int) *InferredGraph {
	counts := map[graph.Edge]int{}
	for _, t := range tweets {
		p := ParseTweet(t.Text)
		if !p.IsRetweet() {
			continue
		}
		chain := p.Chain(t.Author, numUsers) // nil through an unknown user
		for i := 0; i+1 < len(chain); i++ {
			if chain[i] != chain[i+1] {
				counts[graph.Edge{From: chain[i], To: chain[i+1]}]++
			}
		}
	}
	edges := make([]graph.Edge, 0, len(counts))
	for e := range counts {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	g := graph.New(numUsers)
	obs := make([]int, 0, len(edges))
	for _, e := range edges {
		g.MustAddEdge(e.From, e.To)
		obs = append(obs, counts[e])
	}
	return &InferredGraph{Flow: g, EdgeObservations: obs}
}
