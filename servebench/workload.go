package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
)

// endpoint is the served path a request goes to.
type endpoint int8

const (
	epFlow endpoint = iota
	epCommunity
	epImpact
	epMaximize
	numEndpoints
)

var endpointNames = [numEndpoints]string{"flow", "community", "impact", "maximize"}

func (e endpoint) String() string { return endpointNames[e] }

// request is one generated query: its URL and the parameters the
// reference check needs to recompute the answer with the library.
type request struct {
	ep      endpoint
	model   string // "paper" or "tree"
	source  graph.NodeID
	sink    graph.NodeID
	sources []graph.NodeID // /impact source set, sorted and distinct
	conds   string         // canonical cond= value, "" when unconditioned
	samples int            // 0 = server default
	seed    uint64         // 0 = server default
	mode    string         // /impact mode, "" = server default (auto)
	k       int            // /maximize budget
	comm    bool           // /maximize restricted to the fixed community
	url     string
}

// page is a group of requests issued together. It issues
// reqs[follow:] followGap after the rest (follow 0: all at once).
type page struct {
	follow int
	reqs   []request
}

// servedModels holds the models the server answers for and the
// generator's view of them.
type servedModels struct {
	paper, tree *core.ICM
	community   []graph.NodeID // fixed /maximize target set on paper
	communityQ  string         // its canonical URL form
}

// communitySize is the /maximize target-set size at §IV-C scale.
const communitySize = 500

// communitySeed fixes the /maximize community across seeds and runs.
const communitySeed = 5

func newServedModels(paper, tree *core.ICM) *servedModels {
	r := rng.New(communitySeed)
	size := min(communitySize, paper.NumNodes()/4)
	idx := r.Sample(paper.NumNodes(), size)
	comm := make([]graph.NodeID, len(idx))
	for i, v := range idx {
		comm[i] = graph.NodeID(v)
	}
	sort.Slice(comm, func(i, j int) bool { return comm[i] < comm[j] })
	return &servedModels{paper: paper, tree: tree, community: comm, communityQ: nodeList(comm)}
}

func nodeList(nodes []graph.NodeID) string {
	parts := make([]string, len(nodes))
	for i, v := range nodes {
		parts[i] = strconv.Itoa(int(v))
	}
	return strings.Join(parts, ",")
}

// reachablePair draws (source, sink) with a directed path from source
// to sink in g, by a short random walk along out-edges. Every edge of
// the served models has positive probability, so the flow is possible.
func reachablePair(g *graph.DiGraph, r *rng.RNG) (graph.NodeID, graph.NodeID) {
	n := g.NumNodes()
	for {
		src := graph.NodeID(r.Intn(n))
		if g.OutDegree(src) == 0 {
			continue
		}
		v := src
		for steps := 1 + r.Intn(6); steps > 0; steps-- {
			out := g.OutEdges(v)
			if len(out) == 0 {
				break
			}
			v = g.Edge(out[r.Intn(len(out))]).To
		}
		if v != src {
			return src, v
		}
	}
}

// sourceSet draws 1–3 distinct nodes, sorted.
func sourceSet(n int, r *rng.RNG) []graph.NodeID {
	idx := r.Sample(n, 1+r.Intn(3))
	set := make([]graph.NodeID, len(idx))
	for i, v := range idx {
		set[i] = graph.NodeID(v)
	}
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	return set
}

func (q *request) render() {
	var b strings.Builder
	b.WriteString("/" + q.ep.String() + "?model=" + q.model)
	switch q.ep {
	case epFlow:
		fmt.Fprintf(&b, "&source=%d&sink=%d", q.source, q.sink)
	case epCommunity:
		fmt.Fprintf(&b, "&source=%d", q.source)
	case epImpact:
		b.WriteString("&sources=" + nodeList(q.sources))
		if q.mode != "" {
			b.WriteString("&mode=" + q.mode)
		}
	case epMaximize:
		fmt.Fprintf(&b, "&k=%d", q.k)
	}
	if q.conds != "" {
		b.WriteString("&cond=" + q.conds)
	}
	if q.samples > 0 {
		fmt.Fprintf(&b, "&samples=%d", q.samples)
	}
	if q.seed > 0 {
		fmt.Fprintf(&b, "&seed=%d", q.seed)
	}
	q.url = b.String()
}

// finish renders q's URL. A /maximize community restriction appends
// the fixed target list rendered once, not rebuilt per request.
func (q *request) finish(sm *servedModels) {
	q.render()
	if q.comm {
		q.url += "&community=" + sm.communityQ
	}
}

// ---- flow_burst ----

// burstShape is the composition of one flow_burst page.
type burstShape struct {
	flows, communities, impacts, samples int
	impactMode                           string
}

var burstDefault = burstShape{flows: 256, communities: 32, impacts: 16, samples: 100, impactMode: "sampled"}

// followGap is how long after its /flow requests a flow_burst page
// issues its /community and /impact requests: longer than the 5 ms
// batching window, so the flow batch always reaches a worker first.
// Issued together, the three batches race for the two workers on their
// window timers, and under host steal /flow p50 flips between one and
// two batch rounds from run to run.
const followGap = 20 * time.Millisecond

// burstGen yields flow_burst pages: every page asks new queries, so the
// cache stays near zero hits. Page i depends only on the seed and i.
type burstGen struct {
	sm    *servedModels
	shape burstShape
	r     *rng.RNG
	seen  map[string]bool
}

func newBurstGen(sm *servedModels, shape burstShape, seed uint64) *burstGen {
	return &burstGen{sm: sm, shape: shape, r: rng.NewStream(seed, 1), seen: make(map[string]bool)}
}

// fresh reports whether key is new to the run, retrying a bounded
// number of times before accepting a repeat.
func (g *burstGen) fresh(key string, try int) bool {
	if g.seen[key] && try < 64 {
		return false
	}
	g.seen[key] = true
	return true
}

func (g *burstGen) next() page {
	m := g.sm.paper
	var p page
	for i := 0; i < g.shape.flows; i++ {
		for try := 0; ; try++ {
			src, dst := reachablePair(m.G, g.r)
			if g.fresh(fmt.Sprintf("f%d>%d", src, dst), try) {
				p.reqs = append(p.reqs, request{ep: epFlow, model: "paper", source: src, sink: dst, samples: g.shape.samples})
				break
			}
		}
	}
	p.follow = len(p.reqs)
	for i := 0; i < g.shape.communities; i++ {
		for try := 0; ; try++ {
			src := graph.NodeID(g.r.Intn(m.NumNodes()))
			if g.fresh(fmt.Sprintf("c%d", src), try) {
				p.reqs = append(p.reqs, request{ep: epCommunity, model: "paper", source: src, samples: g.shape.samples})
				break
			}
		}
	}
	for i := 0; i < g.shape.impacts; i++ {
		for try := 0; ; try++ {
			set := sourceSet(m.NumNodes(), g.r)
			if g.fresh("i"+nodeList(set), try) {
				p.reqs = append(p.reqs, request{ep: epImpact, model: "paper", sources: set, samples: g.shape.samples, mode: g.shape.impactMode})
				break
			}
		}
	}
	for i := range p.reqs {
		p.reqs[i].finish(g.sm)
	}
	return p
}

// ---- cond_pages ----

// evidence is one what-if scenario: a satisfiable condition set.
type evidence struct {
	conds []core.FlowCondition
	key   string // canonical cond= value
}

// condShape sizes the cond_pages workload.
type condShape struct {
	evidence         int     // pool size
	zipf             float64 // popularity exponent over the pool
	cycle            int     // pages in one popularity cycle
	flows, comms     int     // requests per page
	reFlows, reComms int     // of which re-ask the set's previous page
	samples          int
}

// condDefault re-asks a quarter of each page. A set recurs within one
// 32-page cycle, and a page adds at most 24 new entries to the cache,
// so every re-asked query is still among the 1024 entries cached.
var condDefault = condShape{
	evidence: 16, zipf: 0.5, cycle: 32,
	flows: 24, comms: 8, reFlows: 6, reComms: 2, samples: 20,
}

// evidencePoolSeed fixes the evidence pool; the workload seed only
// picks among it.
const evidencePoolSeed = 11

// condKey renders conditions in the server's canonical sorted form.
func condKey(conds []core.FlowCondition) string {
	parts := make([]string, len(conds))
	for i, c := range conds {
		req := 0
		if c.Require {
			req = 1
		}
		parts[i] = fmt.Sprintf("%d>%d=%d", c.Source, c.Sink, req)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// parseCondKey inverts condKey; the generator only builds valid keys.
func parseCondKey(key string) []core.FlowCondition {
	if key == "" {
		return nil
	}
	var out []core.FlowCondition
	for _, part := range strings.Split(key, ",") {
		var u, v, req int
		fmt.Sscanf(part, "%d>%d=%d", &u, &v, &req)
		out = append(out, core.FlowCondition{Source: graph.NodeID(u), Sink: graph.NodeID(v), Require: req == 1})
	}
	return out
}

// buildEvidencePool draws shape.evidence condition sets of 1–3
// conditions each: one required flow plus up to two forbidden ones, so
// every set mixes the two kinds and conditioned chains cost about the
// same per step. It keeps only sets the sampler can satisfy, so the
// workload never sees a 422.
func buildEvidencePool(m *core.ICM, shape condShape) ([]evidence, error) {
	r := rng.New(evidencePoolSeed)
	var pool []evidence
	for attempts := 0; len(pool) < shape.evidence; attempts++ {
		if attempts > 50*shape.evidence {
			return nil, fmt.Errorf("evidence pool: only %d of %d satisfiable sets found", len(pool), shape.evidence)
		}
		nc := 1 + r.Intn(3)
		var conds []core.FlowCondition
		used := map[graph.NodeID]bool{}
		for c := 0; c < nc; c++ {
			src, dst := reachablePair(m.G, r)
			if used[src] || used[dst] {
				continue
			}
			used[src], used[dst] = true, true
			conds = append(conds, core.FlowCondition{Source: src, Sink: dst, Require: c == 0})
		}
		if len(conds) == 0 {
			continue
		}
		key := condKey(conds)
		conds = parseCondKey(key)
		if _, err := mh.NewSampler(m, conds, rng.New(1)); err != nil {
			continue
		}
		pool = append(pool, evidence{conds: conds, key: key})
	}
	return pool, nil
}

// condGen yields cond_pages pages. Evidence popularity is Zipf: one
// cycle gives every set its Zipf share of shape.cycle pages, spread
// evenly over the cycle, and the cycle repeats. The order is the same
// for every seed, so runs that answer the same number of pages ask
// the same mix of sets, which differ several-fold in cost; the seed
// picks the queries. A page under a set re-asks the newest
// reFlows flows and reComms sources of the set's previous page, which
// the cache answers, and asks new queries for the rest: about a
// quarter of requests repeat however many pages a run holds. Page i
// depends only on the seed and i.
type condGen struct {
	sm    *servedModels
	pool  []evidence
	shape condShape
	r     *rng.RNG
	order []int // one popularity cycle of evidence picks
	n     int   // pages generated
	sets  []condHistory
}

// condHistory is what pages under one evidence set have asked.
type condHistory struct {
	seenFlows map[[2]graph.NodeID]bool
	seenComms map[graph.NodeID]bool
	flows     [][2]graph.NodeID // the previous page's new flows
	comms     []graph.NodeID    // the previous page's new sources
}

func newCondGen(sm *servedModels, pool []evidence, shape condShape, seed uint64) *condGen {
	g := &condGen{sm: sm, pool: pool, shape: shape, r: rng.NewStream(seed, 2), sets: make([]condHistory, len(pool))}
	g.order = zipfCycle(len(pool), shape.zipf, shape.cycle)
	for i := range g.sets {
		g.sets[i] = condHistory{seenFlows: map[[2]graph.NodeID]bool{}, seenComms: map[graph.NodeID]bool{}}
	}
	return g
}

// newest returns the last n items of s, or all of s if it is shorter.
func newest[T any](s []T, n int) []T {
	return s[max(len(s)-n, 0):]
}

func (g *condGen) next() page {
	e := g.order[g.n%len(g.order)]
	g.n++
	ev, h := &g.pool[e], &g.sets[e]
	m := g.sm.paper
	flows := append([][2]graph.NodeID(nil), newest(h.flows, g.shape.reFlows)...)
	comms := append([]graph.NodeID(nil), newest(h.comms, g.shape.reComms)...)
	reF, reC := len(flows), len(comms)
	for len(flows) < g.shape.flows {
		src, dst := reachablePair(m.G, g.r)
		if f := [2]graph.NodeID{src, dst}; !h.seenFlows[f] {
			h.seenFlows[f] = true
			flows = append(flows, f)
		}
	}
	for len(comms) < g.shape.comms {
		if src := graph.NodeID(g.r.Intn(m.NumNodes())); !h.seenComms[src] {
			h.seenComms[src] = true
			comms = append(comms, src)
		}
	}
	h.flows, h.comms = flows[reF:], comms[reC:]
	var p page
	for _, f := range flows {
		p.reqs = append(p.reqs, request{ep: epFlow, model: "paper", source: f[0], sink: f[1], conds: ev.key, samples: g.shape.samples})
	}
	for _, src := range comms {
		p.reqs = append(p.reqs, request{ep: epCommunity, model: "paper", source: src, conds: ev.key, samples: g.shape.samples})
	}
	g.r.Shuffle(len(p.reqs), func(a, b int) { p.reqs[a], p.reqs[b] = p.reqs[b], p.reqs[a] })
	for i := range p.reqs {
		p.reqs[i].finish(g.sm)
	}
	return p
}

// zipfCycle splits count draws over n items in proportion to
// 1/(rank+1)^s, rounding by largest remainder, and interleaves them:
// item i's q draws sit at positions (k+φᵢ)/q of the cycle, so every
// prefix holds close to each item's share. φᵢ, the fractional part of
// (i+1)·golden, keeps items of equal quota from bunching up at one
// position, which would put a run of costly pages wherever it fell.
func zipfCycle(n int, s float64, count int) []int {
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		total += w[i]
	}
	quota := make([]int, n)
	rem := make([]int, n)
	given := 0
	for i := range w {
		exact := w[i] / total * float64(count)
		quota[i] = int(exact)
		given += quota[i]
		rem[i] = i
		w[i] = exact - float64(quota[i])
	}
	sort.SliceStable(rem, func(a, b int) bool { return w[rem[a]] > w[rem[b]] })
	for _, i := range rem[:count-given] {
		quota[i]++
	}
	type slot struct {
		at   float64
		item int
	}
	var slots []slot
	for i, q := range quota {
		phase := math.Mod(float64(i+1)*golden, 1)
		for k := 0; k < q; k++ {
			slots = append(slots, slot{(float64(k) + phase) / float64(q), i})
		}
	}
	sort.Slice(slots, func(a, b int) bool {
		if slots[a].at != slots[b].at {
			return slots[a].at < slots[b].at
		}
		return slots[a].item < slots[b].item
	})
	out := make([]int, len(slots))
	for i, sl := range slots {
		out[i] = sl.item
	}
	return out
}

// golden is the fractional part of the golden ratio.
const golden = 0.6180339887498949

// ---- select_impact ----

// maximizeBudgets are the seed budgets a planner compares for one pool.
var maximizeBudgets = [3]int{5, 10, 20}

// selectGen yields one caller's alternating /maximize (paper) and
// /impact (tree) requests. Consecutive /maximize requests come in
// groups of three sharing a chain seed, one per budget in seeded order,
// as a planner comparing budgets would; groups alternate between the
// whole graph and the fixed community, and each has a fresh seed, so
// the cache never answers a /maximize.
type selectGen struct {
	sm     *servedModels
	r      *rng.RNG
	n      int // requests generated
	groups int // /maximize groups started
	group  []request
}

func newSelectGen(sm *servedModels, seed uint64, caller int) *selectGen {
	return &selectGen{sm: sm, r: rng.NewStream(seed, uint64(100+caller)), groups: caller}
}

func (g *selectGen) next() request {
	g.n++
	if g.n%2 == 0 {
		q := request{ep: epImpact, model: "tree", sources: sourceSet(g.sm.tree.NumNodes(), g.r)}
		q.finish(g.sm)
		return q
	}
	if len(g.group) == 0 {
		seed := 1 + g.r.Uint64()>>1
		comm := g.groups%2 == 1
		g.groups++
		for _, i := range g.r.Perm(len(maximizeBudgets)) {
			q := request{ep: epMaximize, model: "paper", k: maximizeBudgets[i], seed: seed, comm: comm}
			q.finish(g.sm)
			g.group = append(g.group, q)
		}
	}
	q := g.group[0]
	g.group = g.group[1:]
	return q
}
