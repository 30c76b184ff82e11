package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/influence"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
	"infoflow/internal/sizedist"
)

// Server defaults the generated URLs rely on when they omit a parameter.
const (
	defaultSeed          = 1
	defaultSamples       = 2000
	defaultSketchSamples = 64
	communityTop         = 10
)

// response is the union of the JSON bodies the four endpoints return.
type response struct {
	Prob           float64    `json:"prob"`
	Top            []topEntry `json:"top"`
	Mode           string     `json:"mode"`
	Method         string     `json:"method"`
	Exact          bool       `json:"exact"`
	Dist           []float64  `json:"dist"`
	Seeds          []int      `json:"seeds"`
	MarginalGains  []float64  `json:"marginal_gains"`
	SpreadEstimate float64    `json:"spread_estimate"`
	Universe       int        `json:"universe"`
	RRSets         int        `json:"rr_sets"`
	Cached         bool       `json:"cached"`
	BatchSize      int        `json:"batch_size"`
	Lanes          int        `json:"lanes"`
	Acceptance     float64    `json:"acceptance_rate"`
}

type topEntry struct {
	Node int     `json:"node"`
	Prob float64 `json:"prob"`
}

// answered is a 200 response, decoded.
type answered struct {
	o    *outcome
	resp response
}

// chainKey identifies the chain a batched answer came from: the server
// coalesces exactly the requests that agree on all of it, and its
// answers do not depend on how they were batched.
type chainKey struct {
	ep      endpoint
	model   string
	conds   string
	samples int
	seed    uint64
}

func (q *request) chainKey() chainKey {
	k := chainKey{ep: q.ep, model: q.model, conds: q.conds, samples: q.samples, seed: q.seed}
	if k.samples == 0 {
		k.samples = defaultSamples
	}
	if k.seed == 0 {
		k.seed = defaultSeed
	}
	return k
}

// poolKey identifies one /maximize RR pool: budgets differ only in how
// many seeds the greedy pass takes from it.
type poolKey struct {
	seed uint64
	comm bool
}

// checker recomputes every 200 answer with the library and compares it
// bit for bit.
type checker struct {
	env        *environment
	chains     map[chainKey][]*answered // batched /flow, /community, sampled /impact
	analytic   []*answered              // analytic /impact
	pools      map[poolKey][]*answered  // /maximize
	mismatches int
	samples    []string // the first few mismatch descriptions
	mu         sync.Mutex
}

func newChecker(env *environment) *checker {
	return &checker{
		env:    env,
		chains: map[chainKey][]*answered{},
		pools:  map[poolKey][]*answered{},
	}
}

// add decodes the 200 answers of a phase and files them by the
// computation that must reproduce them.
func (c *checker) add(outs []*outcome) {
	for _, o := range outs {
		if o.status != http.StatusOK {
			continue
		}
		a := &answered{o: o}
		if err := json.Unmarshal(o.body, &a.resp); err != nil {
			c.fail("%s: undecodable body: %v", o.req.url, err)
			continue
		}
		q := o.req
		switch {
		case q.ep == epMaximize:
			k := poolKey{seed: q.seed, comm: q.comm}
			c.pools[k] = append(c.pools[k], a)
		case q.ep == epImpact && a.resp.Mode == "analytic":
			c.analytic = append(c.analytic, a)
		default:
			k := q.chainKey()
			c.chains[k] = append(c.chains[k], a)
		}
	}
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mismatches++
	if len(c.samples) < 5 {
		c.samples = append(c.samples, fmt.Sprintf(format, args...))
	}
}

// chainOptions is the schedule the server runs a batch with.
func chainOptions(m *core.ICM, samples int) mh.Options {
	opts := mh.DefaultOptions(m.NumEdges())
	opts.Samples = samples
	return opts
}

// run computes every reference, in parallel across GOMAXPROCS workers,
// and counts mismatches.
func (c *checker) run() error {
	var jobs []func() error
	for k, as := range c.chains {
		jobs = append(jobs, func() error { return c.checkChain(k, as) })
	}
	for k, as := range c.pools {
		jobs = append(jobs, func() error { return c.checkPool(k, as) })
	}
	for _, a := range c.analytic {
		jobs = append(jobs, func() error { return c.checkAnalytic(a) })
	}
	return parallel(jobs)
}

// parallel runs jobs on GOMAXPROCS workers and returns the first error.
func parallel(jobs []func() error) error {
	next := make(chan func() error)
	errs := make(chan error, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range next {
				if err := job(); err != nil {
					errs <- err
				}
			}
		}()
	}
	for _, job := range jobs {
		next <- job
	}
	close(next)
	wg.Wait()
	close(errs)
	return <-errs
}

func (c *checker) checkChain(k chainKey, as []*answered) error {
	m := c.env.modelByName(k.model)
	conds := parseCondKey(k.conds)
	opts := chainOptions(m, k.samples)
	switch k.ep {
	case epFlow:
		var pairs []mh.FlowPair
		index := map[[2]graph.NodeID]int{}
		for _, a := range as {
			p := [2]graph.NodeID{a.o.req.source, a.o.req.sink}
			if _, ok := index[p]; !ok {
				index[p] = len(pairs)
				pairs = append(pairs, mh.FlowPair{Source: p[0], Sink: p[1]})
			}
		}
		probs, err := mh.FlowProbBatch(m, pairs, conds, opts, rng.New(k.seed))
		if err != nil {
			return fmt.Errorf("reference flow batch: %w", err)
		}
		ref := map[[2]graph.NodeID]float64{}
		for p, i := range index {
			ref[p] = probs[i]
		}
		for _, a := range as {
			want := ref[[2]graph.NodeID{a.o.req.source, a.o.req.sink}]
			if math.Float64bits(a.resp.Prob) != math.Float64bits(want) {
				c.fail("%s: prob %v, library %v", a.o.req.url, a.resp.Prob, want)
			}
		}
	case epCommunity:
		var sources []graph.NodeID
		index := map[graph.NodeID]int{}
		for _, a := range as {
			if _, ok := index[a.o.req.source]; !ok {
				index[a.o.req.source] = len(sources)
				sources = append(sources, a.o.req.source)
			}
		}
		vecs, err := mh.CommunityFlowProbsBatch(m, sources, conds, opts, rng.New(k.seed))
		if err != nil {
			return fmt.Errorf("reference community batch: %w", err)
		}
		ref := map[graph.NodeID][]float64{}
		for v, i := range index {
			ref[v] = vecs[i]
		}
		for _, a := range as {
			want := topFlows(ref[a.o.req.source], a.o.req.source, communityTop)
			if !sameTop(a.resp.Top, want) {
				c.fail("%s: top %v, library %v", a.o.req.url, a.resp.Top, want)
			}
		}
	case epImpact:
		var sets [][]graph.NodeID
		index := map[string]int{}
		for _, a := range as {
			key := nodeList(a.o.req.sources)
			if _, ok := index[key]; !ok {
				index[key] = len(sets)
				sets = append(sets, a.o.req.sources)
			}
		}
		impacts, err := mh.ImpactDistributionBatch(m, sets, conds, opts, rng.New(k.seed))
		if err != nil {
			return fmt.Errorf("reference impact batch: %w", err)
		}
		ref := map[string][]float64{}
		for key, i := range index {
			ref[key] = impactHist(impacts[i], m.NumNodes()-len(sets[i])+1)
		}
		for _, a := range as {
			want := ref[nodeList(a.o.req.sources)]
			if a.resp.Mode != "sampled" || !sameFloats(a.resp.Dist, want) {
				c.fail("%s: sampled dist differs from the library (mode %q)", a.o.req.url, a.resp.Mode)
			}
		}
	}
	return nil
}

// sketchOptions is the /maximize schedule for a request: the default
// 64×256 pool under the scalar chain schedule.
func sketchOptions(m *core.ICM) influence.SketchOptions {
	return influence.SketchOptions{Chain: chainOptions(m, defaultSketchSamples), RootsPerSample: mh.DefaultRootsPerSample}
}

func (c *checker) checkPool(k poolKey, as []*answered) error {
	m := c.env.sm.paper
	opts := sketchOptions(m)
	pool, err := mh.BuildRRPool(m, c.env.targets(k.comm), nil, opts.RootsPerSample, opts.Words, opts.Chain, rng.New(k.seed))
	if err != nil {
		return fmt.Errorf("reference RR pool: %w", err)
	}
	for _, a := range as {
		res, err := influence.SketchGreedy(pool, a.o.req.k, nil)
		if err != nil {
			return fmt.Errorf("reference selection: %w", err)
		}
		if !sameMaximize(&a.resp, res, pool) {
			c.fail("%s: selection %v, library %v", a.o.req.url, a.resp.Seeds, res.Seeds)
		}
	}
	return nil
}

func sameMaximize(r *response, res *influence.Result, pool *mh.RRPool) bool {
	if len(r.Seeds) != len(res.Seeds) || r.Universe != pool.Universe || r.RRSets != pool.NumSets ||
		math.Float64bits(r.SpreadEstimate) != math.Float64bits(res.SpreadEstimate) {
		return false
	}
	for i, v := range res.Seeds {
		if r.Seeds[i] != int(v) {
			return false
		}
	}
	return sameFloats(r.MarginalGains, res.MarginalGains)
}

func (c *checker) checkAnalytic(a *answered) error {
	m := c.env.modelByName(a.o.req.model)
	res, err := sizedist.Compute(m, a.o.req.sources, sizedist.DefaultOptions())
	if err != nil {
		c.fail("%s: served analytically, library says %v", a.o.req.url, err)
		return nil
	}
	if a.resp.Method != res.Method.String() || a.resp.Exact != res.Exact || !sameFloats(a.resp.Dist, res.Dist) {
		c.fail("%s: analytic dist differs from sizedist.Compute", a.o.req.url)
	}
	return nil
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameTop(a []topEntry, b []topEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || math.Float64bits(a[i].Prob) != math.Float64bits(b[i].Prob) {
			return false
		}
	}
	return true
}

// topFlows is the server's community ranking: nodes other than the
// source with positive probability, by probability then node id.
func topFlows(probs []float64, source graph.NodeID, top int) []topEntry {
	out := make([]topEntry, 0, top)
	for v, p := range probs {
		if graph.NodeID(v) != source && p > 0 {
			out = append(out, topEntry{Node: v, Prob: p})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return out[i].Node < out[j].Node
	})
	if len(out) > top {
		out = out[:top]
	}
	return out
}

// impactHist is the server's normalised cascade-size histogram.
func impactHist(samples []int, length int) []float64 {
	hist := make([]float64, length)
	for _, imp := range samples {
		hist[imp]++
	}
	for i := range hist {
		hist[i] /= float64(len(samples))
	}
	return hist
}
