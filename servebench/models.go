package main

import (
	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// Model seeds are fixed: the workload seed drives query generation
// only, so every run of every workload serves the same two models.
const (
	paperModelSeed = 2 // the internal/influence §IV-C benchmark fixture
	treeModelSeed  = 3
)

// scale is the size of the two served models.
type scale struct {
	nodes, edges int
}

// paperScale is §IV-C: 6000 users, 14000 edges.
var paperScale = scale{nodes: 6000, edges: 14000}

// paperModel is graph.Random(n, m) with p = 0.2 + 0.4·U: near-critical,
// so sizedist is intractable on it and every query needs the chain.
func paperModel(sc scale) *core.ICM {
	r := rng.New(paperModelSeed)
	g := graph.Random(r, sc.nodes, sc.edges)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 0.2 + 0.4*r.Float64()
	}
	return core.MustNewICM(g, p)
}

// treeModel is a random recursive forest on sc.nodes nodes: node v > 0
// hangs below a uniform earlier node with probability 0.98 and starts a
// new tree otherwise, edges pointing away from the roots. sizedist
// computes its cascade-size law exactly.
func treeModel(sc scale) *core.ICM {
	r := rng.New(treeModelSeed)
	g := graph.New(sc.nodes)
	for v := 1; v < sc.nodes; v++ {
		if r.Float64() < 0.98 {
			g.MustAddEdge(graph.NodeID(r.Intn(v)), graph.NodeID(v))
		}
	}
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 0.2 + 0.6*r.Float64()
	}
	return core.MustNewICM(g, p)
}
