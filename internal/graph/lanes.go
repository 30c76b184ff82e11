package graph

import "infoflow/internal/bitset"

// This file holds the packed kernels of the traversal engine. The
// active-edge mask is a packed bitset.Set (a pseudo-state slots in
// directly) and scratch state is caller-owned, so steady-state calls
// allocate nothing. Every estimator answers each of its queries with one
// of these kernels: the bidirectional early-exit search for a flow, the
// packed BFS for a community, an impact set or (against edge direction)
// a reverse-reachability root. The closure traversals Reachable and
// HasPath (traverse.go) are the plain BFS reference every kernel is
// tested against.

// ReachableBitsInto is the allocation-free, packed variant of Reachable:
// dst[v/64] bit v%64 is set iff v is a source or reachable from one
// across edges whose bit in active is set. dst doubles as the visited
// set, so the per-call reset is a word-wise clear (n/64 stores). If sc
// is nil a temporary Scratch is allocated; if dst cannot hold NumNodes
// bits a fresh set is allocated. The returned set is dst (or its
// replacement).
//
//flowlint:hotpath
func (g *DiGraph) ReachableBitsInto(sources []NodeID, active bitset.Set, sc *Scratch, dst bitset.Set) bitset.Set {
	return g.reachBits(sources, false, active, sc, dst)
}

// ReachableBitsReverseInto is ReachableBitsInto against edge direction:
// dst bit u is set iff u is a sink or reaches one across edges whose bit
// in active is set, so for one sink it is that sink's
// reverse-reachability (RR) set. It follows the in-edge adjacency the
// graph already carries, which is ReachableBitsInto on the transposed
// graph without building it. sc and dst are treated as in
// ReachableBitsInto.
//
//flowlint:hotpath
func (g *DiGraph) ReachableBitsReverseInto(sinks []NodeID, active bitset.Set, sc *Scratch, dst bitset.Set) bitset.Set {
	return g.reachBits(sinks, true, active, sc, dst)
}

// reachBits is the one packed BFS loop behind ReachableBitsInto (reverse
// false: out-edges, reading To) and ReachableBitsReverseInto (reverse
// true: in-edges, reading From). On return sc.queue lists the reached
// nodes in visiting order, until the Scratch's next traversal.
//
//flowlint:hotpath
func (g *DiGraph) reachBits(seeds []NodeID, reverse bool, active bitset.Set, sc *Scratch, dst bitset.Set) bitset.Set {
	n := g.NumNodes()
	if sc == nil {
		sc = tempScratch(n)
	}
	if dst.Cap() < n {
		//flowlint:ignore hotpath -- documented cold fallback when the caller passes no dst; steady-state callers reuse theirs
		dst = bitset.New(n)
	} else {
		dst.Reset()
	}
	adj := g.out
	if reverse {
		adj = g.in
	}
	queue := sc.queue[:0]
	for _, s := range seeds {
		if !dst.Test(int(s)) {
			dst.Set(int(s))
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, id := range adj[v] {
			if !active.Test(int(id)) {
				continue
			}
			// Load only the far endpoint: copying the edge first made a
			// 256-root RR tally about 25% slower.
			var w NodeID
			if reverse {
				w = g.edges[id].From
			} else {
				w = g.edges[id].To
			}
			if !dst.Test(int(w)) {
				dst.Set(int(w))
				queue = append(queue, w)
			}
		}
	}
	sc.queue = queue
	return dst
}

// HasPathBits is the allocation-free, packed variant of HasPath: it
// reports whether sink is reachable from source across edges whose bit
// in active is set. If sc is nil a temporary Scratch is allocated.
//
// Unlike HasPath it searches bidirectionally — expanding whichever of
// the forward (out-edges from source) and backward (in-edges from sink)
// frontiers is currently smaller, and declaring a path the moment the
// two meet. On the sparse random graphs the samplers walk, the frontiers
// meet after visiting O(sqrt m) edges rather than O(m). The answer is
// identical to HasPath's for every input. The visited sets stay
// epoch-stamped (not packed) because the search touches so few nodes
// that an O(1) epoch bump beats even a word-wise clear.
//
//flowlint:hotpath
func (g *DiGraph) HasPathBits(source, sink NodeID, active bitset.Set, sc *Scratch) bool {
	if sc == nil {
		sc = tempScratch(g.NumNodes())
	}
	found, _, _ := g.search(source, sink, active, sc, nil)
	return found
}

// PathSearch is the verdict of one SearchPathBits call and the evidence
// behind it.
type PathSearch struct {
	// Found reports whether an active source~>sink path exists.
	Found bool
	// Backward reports which frontier of a failed search ran dry: false
	// for the forward one, true for the backward one.
	Backward bool
	// Side lists the dry frontier's nodes when the search failed: exactly
	// the nodes source reaches (forward), or exactly the nodes that reach
	// sink (backward). It aliases the Scratch's queues and is valid until
	// the Scratch's next traversal.
	Side []NodeID
	// Path lists, when the search found a path and was given a via array,
	// the edges of one active source~>sink path in order; it is empty
	// when source == sink.
	Path []EdgeID
}

// SearchPathBits runs HasPathBits' search and also returns what it
// visited: the dry frontier of a failed search, or, when via is non-nil,
// the path a successful one found, built in path's backing array. via
// must hold NumNodes entries; the search overwrites those of the nodes
// it visits and reads no others, so it needs no reset between calls. If
// sc is nil a temporary Scratch is allocated.
//
//flowlint:hotpath
func (g *DiGraph) SearchPathBits(source, sink NodeID, active bitset.Set, sc *Scratch, via, path []EdgeID) (r PathSearch) {
	if sc == nil {
		sc = tempScratch(g.NumNodes())
	}
	var meet EdgeID
	r.Found, r.Backward, meet = g.search(source, sink, active, sc, via)
	switch {
	case !r.Found && r.Backward:
		r.Side = sc.back
		return r
	case !r.Found:
		r.Side = sc.queue
		return r
	case via == nil:
		return r
	}
	path = path[:0]
	if source != sink {
		// The forward half walks back from the meeting edge's tail to
		// source and is then reversed; the backward half walks on from
		// its head to sink.
		e := g.edges[meet]
		for v := e.From; v != source; v = g.edges[via[v]].From {
			path = append(path, via[v])
		}
		for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
			path[a], path[b] = path[b], path[a]
		}
		path = append(path, meet)
		for v := e.To; v != sink; v = g.edges[via[v]].To {
			path = append(path, via[v])
		}
	}
	r.Path = path
	return r
}

// search is the one bidirectional search loop behind HasPathBits and
// SearchPathBits. It returns found and, on success, the edge meet = a->b
// on which the frontiers met (a visited forward, b backward); on
// failure, whether the backward frontier is the one that ran dry. Each
// frontier's visited nodes stay in sc.queue (forward) and sc.back
// (backward) until the Scratch's next traversal. When via is non-nil,
// via[w] records how each visited w other than source and sink was
// reached: the edge from its forward parent into w, or the edge from w
// to its backward parent. The inner loops return directly rather than
// break out on a flag; the flag form ran 8-9% slower.
//
//flowlint:hotpath
func (g *DiGraph) search(source, sink NodeID, active bitset.Set, sc *Scratch, via []EdgeID) (found, backward bool, meet EdgeID) {
	if source == sink {
		return true, false, -1
	}
	fwd, bwd := sc.begin(g.NumNodes())
	stamp := sc.stamp
	stamp[source] = fwd
	stamp[sink] = bwd
	fq := append(sc.queue[:0], source)
	bq := append(sc.back[:0], sink)
	fhead, bhead := 0, 0
	for {
		fpend, bpend := len(fq)-fhead, len(bq)-bhead
		if fpend == 0 || bpend == 0 {
			sc.queue, sc.back = fq, bq
			return false, fpend != 0, -1
		}
		if fpend <= bpend {
			v := fq[fhead]
			fhead++
			for _, id := range g.out[v] {
				if !active.Test(int(id)) {
					continue
				}
				w := g.edges[id].To
				if stamp[w] == bwd {
					sc.queue, sc.back = fq, bq
					return true, false, id
				}
				if stamp[w] != fwd {
					stamp[w] = fwd
					fq = append(fq, w)
					if via != nil {
						via[w] = id
					}
				}
			}
		} else {
			v := bq[bhead]
			bhead++
			for _, id := range g.in[v] {
				if !active.Test(int(id)) {
					continue
				}
				w := g.edges[id].From
				if stamp[w] == fwd {
					sc.queue, sc.back = fq, bq
					return true, false, id
				}
				if stamp[w] != bwd {
					stamp[w] = bwd
					bq = append(bq, w)
					if via != nil {
						via[w] = id
					}
				}
			}
		}
	}
}
