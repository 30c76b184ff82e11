package graph

import "infoflow/internal/bitset"

// This file holds the single-query kernels of the traversal engine. The
// active-edge mask is a packed bitset.Set (a pseudo-state slots in
// directly) and scratch state is caller-owned, so steady-state calls
// allocate nothing. The multi-query sweeps that answer 64*W flow
// queries per pass live in lanes_wide.go and lanes_reverse.go. The
// closure traversals Reachable and HasPath (traverse.go) are the plain
// BFS reference every kernel is tested against.

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
	queue := sc.queue[:0]
	for _, s := range sources {
		if !dst.Test(int(s)) {
			dst.Set(int(s))
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, id := range g.out[v] {
			if !active.Test(int(id)) {
				continue
			}
			w := g.edges[id].To
			if !dst.Test(int(w)) {
				dst.Set(int(w))
				queue = append(queue, w)
			}
		}
	}
	sc.queue = queue[:0]
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
	if source == sink {
		return true
	}
	n := g.NumNodes()
	if sc == nil {
		sc = tempScratch(n)
	}
	fwd, bwd := sc.begin(n)
	stamp := sc.stamp
	stamp[source] = fwd
	stamp[sink] = bwd
	fq := append(sc.queue[:0], source)
	bq := append(sc.back[:0], sink)
	fhead, bhead := 0, 0
	met := false
	for !met {
		fpend, bpend := len(fq)-fhead, len(bq)-bhead
		if fpend == 0 || bpend == 0 {
			break
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
					met = true
					break
				}
				if stamp[w] != fwd {
					stamp[w] = fwd
					fq = append(fq, w)
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
					met = true
					break
				}
				if stamp[w] != bwd {
					stamp[w] = bwd
					bq = append(bq, w)
				}
			}
		}
	}
	sc.queue = fq[:0]
	sc.back = bq[:0]
	return met
}
