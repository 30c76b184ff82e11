package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"infoflow/internal/bitset"
	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/influence"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
	"infoflow/internal/sizedist"
)

// The traced replay re-executes a sample of the traced phase's work
// single-threaded through the layers' public entry points, with a span
// around every call: the chain (mh.NewSampler, Sampler.Step in blocks
// of Thin), the sweeps (LaneEngine.Sweep, DiGraph.ReachLanesWideReverseInto),
// condition checks (core.ICM.SatisfiesScratch), sizedist.Compute,
// mh.BuildRRPool and influence.SketchGreedy. Every replayed answer must
// equal the served one bit for bit, which shows the replay timed the
// computation the server ran.

// replayPerKind caps how many batches (or requests) of each kind the
// replay re-executes; they are spread evenly over the traced phase.
const replayPerKind = 6

// decomposedPools is how many /maximize pools the replay also rebuilds
// step by step, to time the chain and the reverse sweeps inside
// mh.BuildRRPool.
const decomposedPools = 2

// minCoverage is the share of a replayed batch its child spans must
// cover for the replay's layer times to account for it.
const minCoverage = 0.9

// servedBatch is a reconstructed batch: requests of one chain key that
// the server reported in one batch of the same shape.
type servedBatch struct {
	key     chainKey
	members []*answered
	size    int // batch_size the server reported
	lanes   int
}

// reconstructBatches groups the batched 200 answers of a phase into
// batches of the shape each response reports, in issue order. Answers
// do not depend on batching, so the grouping only has to match shapes.
func reconstructBatches(as []*answered) []*servedBatch {
	byKey := map[chainKey][]*answered{}
	var keys []chainKey
	for _, a := range as {
		if a.resp.Cached || a.resp.BatchSize == 0 {
			continue
		}
		k := a.o.req.chainKey()
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], a)
	}
	var out []*servedBatch
	for _, k := range keys {
		list := byKey[k]
		sort.SliceStable(list, func(i, j int) bool { return list[i].o.issued.Before(list[j].o.issued) })
		used := make([]bool, len(list))
		for i, a := range list {
			if used[i] {
				continue
			}
			b := &servedBatch{key: k, size: a.resp.BatchSize, lanes: a.resp.Lanes}
			for j := i; j < len(list) && len(b.members) < b.size; j++ {
				if !used[j] && list[j].resp.BatchSize == b.size && list[j].resp.Lanes == b.lanes {
					used[j] = true
					b.members = append(b.members, list[j])
				}
			}
			out = append(out, b)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].members[0].o.issued.Before(out[j].members[0].o.issued) })
	return out
}

// spread picks up to n items evenly from a list.
func spread[T any](items []T, n int) []T {
	if len(items) <= n {
		return items
	}
	out := make([]T, n)
	for i := range out {
		out[i] = items[i*len(items)/n]
	}
	return out
}

// replayer runs the replay and collects its spans.
type replayer struct {
	env        *environment
	tr         *tracer
	mismatches int
	notes      []string
	chains     []chainRun     // per replayed chain: steps and acceptance
	batches    []int32        // replayed batch and request spans
	condBatch  map[int32]bool // replay.batch span → chain was conditioned
	waits      []float64      // per batched request: latency − replayed batch time, ms
	poolSteps  int64          // chain steps per /maximize pool
}

type chainRun struct {
	steps      int64
	acceptance float64
}

func (rp *replayer) mismatch(format string, args ...any) {
	rp.mismatches++
	if len(rp.notes) < 5 {
		rp.notes = append(rp.notes, fmt.Sprintf(format, args...))
	}
}

// stepBlocks advances s by n steps in blocks of at most thin, one
// mh.Sampler.Step span per block.
func (rp *replayer) stepBlocks(s *mh.Sampler, n, thin int, parent int32) {
	for done := 0; done < n; {
		chunk := min(thin, n-done)
		i := rp.tr.begin("mh.Sampler.Step", parent)
		for k := 0; k < chunk; k++ {
			s.Step()
		}
		rp.tr.end(i)
		rp.tr.spans[i].steps = chunk
		done += chunk
	}
}

// lanePlan lays k lanes out the way mh's batch estimators do: the
// narrowest width holding them all (at most mh.MaxLaneWords words),
// chunked when k exceeds it.
type lanePlan struct {
	lanesPer int
	seeds    [][]graph.NodeID
	seedBits []*bitset.LaneMatrix
	reach    []*bitset.LaneMatrix
	engines  []*graph.LaneEngine
}

func newLanePlan(g *graph.DiGraph, sources []graph.NodeID) *lanePlan {
	k := len(sources)
	words := min(max((k+mh.LaneWidth-1)/mh.LaneWidth, 1), mh.MaxLaneWords)
	p := &lanePlan{lanesPer: words * mh.LaneWidth}
	for lo := 0; lo < k; lo += p.lanesPer {
		hi := min(lo+p.lanesPer, k)
		sb := &bitset.LaneMatrix{}
		sb.Resize(hi-lo, words)
		for q := lo; q < hi; q++ {
			sb.SetBit(q-lo, q-lo)
		}
		p.seeds = append(p.seeds, sources[lo:hi])
		p.seedBits = append(p.seedBits, sb)
		p.reach = append(p.reach, &bitset.LaneMatrix{})
		p.engines = append(p.engines, graph.NewLaneEngine(g))
	}
	return p
}

// replayBatch re-executes one batch: NewSampler, burn-in and thinning
// in Step blocks, a condition check per thinned state, one Sweep per
// lane chunk and the estimator's hit counting.
func (rp *replayer) replayBatch(idx int, b *servedBatch) {
	m := rp.env.modelByName(b.key.model)
	conds := parseCondKey(b.key.conds)
	opts := chainOptions(m, b.key.samples)
	n := m.NumNodes()

	// The batch's distinct queries, in first-seen order.
	var lanes []graph.NodeID // source per lane
	var sinks []graph.NodeID // flow: sink per lane
	type setSpan struct{ lo, width int }
	var sets []setSpan // impact: lane span per set
	laneOf := map[string]int{}
	for _, a := range b.members {
		q := a.o.req
		key := q.url
		if _, ok := laneOf[key]; ok {
			continue
		}
		switch b.key.ep {
		case epFlow:
			laneOf[key] = len(lanes)
			lanes = append(lanes, q.source)
			sinks = append(sinks, q.sink)
		case epCommunity:
			laneOf[key] = len(lanes)
			lanes = append(lanes, q.source)
		case epImpact:
			laneOf[key] = len(sets)
			sets = append(sets, setSpan{lo: len(lanes), width: len(q.sources)})
			lanes = append(lanes, q.sources...)
		}
	}

	plan := newLanePlan(m.G, lanes)
	hits := make([]int, len(lanes))
	var comm [][]int
	if b.key.ep == epCommunity {
		comm = make([][]int, len(lanes))
		for i := range comm {
			comm[i] = make([]int, n)
		}
	}
	impacts := make([][]int, len(sets))
	checkScratch := graph.NewScratch(n)

	// Collect now, so the replay's own allocations do not set off a
	// collection between the batch's child spans.
	runtime.GC()
	root := rp.tr.beginID("replay.batch", -1, int64(idx))
	var s *mh.Sampler
	var err error
	rp.tr.timed("mh.NewSampler", root, func() { s, err = mh.NewSampler(m, conds, rng.New(b.key.seed)) })
	if err != nil {
		rp.tr.end(root)
		rp.mismatch("replay NewSampler: %v", err)
		return
	}

	// Run's flip-log window: burn-in plus one thinning interval first,
	// then two intervals of headroom.
	s.TrackFlips(true)
	s.SetFlipLogCap(max(2*opts.Thin+16, opts.BurnIn+opts.Thin+16))
	rp.stepBlocks(s, opts.BurnIn, opts.Thin, root)
	s.ResetCounters()
	for sample := 0; sample < opts.Samples; sample++ {
		rp.stepBlocks(s, opts.Thin, opts.Thin, root)
		if len(conds) > 0 {
			ok := true
			rp.tr.timed("core.ICM.SatisfiesScratch", root, func() { ok = m.SatisfiesScratch(s.State(), conds, checkScratch) })
			if !ok {
				rp.mismatch("replay: chain state violates %s", b.key.conds)
			}
		}
		flips, complete := s.TakeFlips()
		for c := range plan.engines {
			i := rp.tr.begin("graph.LaneEngine.Sweep", root)
			plan.engines[c].Sweep(plan.seeds[c], plan.seedBits[c], s.StateBits(), flips, complete, s.Scratch(), plan.reach[c])
			rp.tr.end(i)
		}
		rp.tr.timed("mh.count", root, func() {
			switch b.key.ep {
			case epFlow:
				for q := range lanes {
					if plan.reach[q/plan.lanesPer].TestBit(int(sinks[q]), q%plan.lanesPer) {
						hits[q]++
					}
				}
			case epCommunity:
				for c, reach := range plan.reach {
					lo := c * plan.lanesPer
					for v := 0; v < n; v++ {
						for j, w := range reach.Row(v) {
							for base := lo + j*mh.LaneWidth; w != 0; w &= w - 1 {
								comm[base+bits.TrailingZeros64(w)][v]++
							}
						}
					}
				}
			case epImpact:
				for i, sp := range sets {
					count := 0
				nodes:
					for v := 0; v < n; v++ {
						for q := sp.lo; q < sp.lo+sp.width; q++ {
							if plan.reach[q/plan.lanesPer].TestBit(v, q%plan.lanesPer) {
								count++
								continue nodes
							}
						}
					}
					impacts[i] = append(impacts[i], count-sp.width)
				}
			}
		})
	}
	rp.tr.end(root)
	rp.batches = append(rp.batches, root)
	rp.condBatch[root] = len(conds) > 0
	rp.chains = append(rp.chains, chainRun{
		steps: int64(opts.BurnIn + opts.Samples*opts.Thin), acceptance: s.PostBurnInAcceptanceRate(),
	})

	// Replayed answers must equal the served ones bit for bit.
	took := ms(rp.tr.spans[root].dur())
	for _, a := range b.members {
		q := a.o.req
		lane := laneOf[q.url]
		switch b.key.ep {
		case epFlow:
			if p := float64(hits[lane]) / float64(opts.Samples); math.Float64bits(p) != math.Float64bits(a.resp.Prob) {
				rp.mismatch("replay %s: prob %v, served %v", q.url, p, a.resp.Prob)
			}
		case epCommunity:
			vec := make([]float64, n)
			for v, c := range comm[lane] {
				vec[v] = float64(c) / float64(opts.Samples)
			}
			if !sameTop(topFlows(vec, q.source, communityTop), a.resp.Top) {
				rp.mismatch("replay %s: community ranking differs from served", q.url)
			}
		case epImpact:
			if !sameFloats(impactHist(impacts[lane], n-len(q.sources)+1), a.resp.Dist) {
				rp.mismatch("replay %s: impact dist differs from served", q.url)
			}
		}
		rp.waits = append(rp.waits, ms(a.o.latency())-took)
	}
}

// replayMaximize re-executes one /maximize through mh.BuildRRPool and
// influence.SketchGreedy.
func (rp *replayer) replayMaximize(idx int, a *answered) {
	m := rp.env.sm.paper
	q := a.o.req
	opts := sketchOptions(m)
	runtime.GC()
	root := rp.tr.beginID("replay.maximize", -1, int64(idx))
	var pool *mh.RRPool
	var err error
	rp.tr.timed("mh.BuildRRPool", root, func() {
		pool, err = mh.BuildRRPool(m, rp.env.targets(q.comm), nil, opts.RootsPerSample, opts.Words, opts.Chain, rng.New(q.seed))
	})
	if err != nil {
		rp.tr.end(root)
		rp.mismatch("replay BuildRRPool: %v", err)
		return
	}
	var res *influence.Result
	rp.tr.timed("influence.SketchGreedy", root, func() { res, err = influence.SketchGreedy(pool, q.k, nil) })
	rp.tr.end(root)
	rp.batches = append(rp.batches, root)
	rp.poolSteps = int64(opts.Chain.BurnIn + opts.Chain.Samples*opts.Chain.Thin)
	if err != nil || !sameMaximize(&a.resp, res, pool) {
		rp.mismatch("replay %s: selection differs from served", q.url)
	}
	if idx < decomposedPools {
		rp.decomposePool(idx, q, pool)
	}
}

// decomposePool rebuilds an RR pool step by step — chain, reverse
// sweeps, cover transpose — and checks it against the library's pool.
func (rp *replayer) decomposePool(idx int, q *request, want *mh.RRPool) {
	m := rp.env.sm.paper
	n := m.NumNodes()
	opts := sketchOptions(m)
	runtime.GC()
	root := rp.tr.beginID("replay.rrpool", -1, int64(idx))
	r := rng.New(q.seed)
	rootR := r.Fork()
	var s *mh.Sampler
	var err error
	rp.tr.timed("mh.NewSampler", root, func() { s, err = mh.NewSampler(m, nil, r) })
	if err != nil {
		rp.tr.end(root)
		rp.mismatch("replay pool NewSampler: %v", err)
		return
	}
	roots := opts.RootsPerSample
	universe, _ := core.DedupSources(n, rp.env.targets(q.comm))
	numSets := opts.Chain.Samples * roots
	drawn := make([]graph.NodeID, numSets)
	for i := range drawn {
		if len(universe) == 0 {
			drawn[i] = graph.NodeID(rootR.Intn(n))
		} else {
			drawn[i] = universe[rootR.Intn(len(universe))]
		}
	}
	words := min(roots/mh.LaneWidth, mh.MaxLaneWords)
	lanesPer := words * mh.LaneWidth
	cover := bitset.NewLaneMatrix(n, numSets/mh.LaneWidth)
	rootBits := bitset.NewLaneMatrix(lanesPer, words)
	for l := 0; l < lanesPer; l++ {
		rootBits.SetBit(l, l)
	}
	reach := &bitset.LaneMatrix{}
	rp.stepBlocks(s, opts.Chain.BurnIn, opts.Chain.Thin, root)
	for sample := 0; sample < opts.Chain.Samples; sample++ {
		rp.stepBlocks(s, opts.Chain.Thin, opts.Chain.Thin, root)
		base := sample * roots
		for lo := 0; lo < roots; lo += lanesPer {
			hi := min(lo+lanesPer, roots)
			i := rp.tr.begin("graph.DiGraph.ReachLanesWideReverseInto", root)
			m.G.ReachLanesWideReverseInto(drawn[base+lo:base+hi], rootBits, s.StateBits(), s.Scratch(), reach)
			rp.tr.end(i)
			rp.tr.timed("mh.count", root, func() {
				off := (base + lo) / mh.LaneWidth
				for v := 0; v < n; v++ {
					row, dst := reach.Row(v), cover.Row(v)[off:]
					for j := 0; j < (hi-lo)/mh.LaneWidth; j++ {
						dst[j] |= row[j]
					}
				}
			})
		}
	}
	rp.tr.end(root)
	rp.batches = append(rp.batches, root)
	for v := 0; v < n; v++ {
		if !sameWords(cover.Row(v), want.Cover.Row(v)) {
			rp.mismatch("replay pool seed %d: cover row %d differs from mh.BuildRRPool", q.seed, v)
			return
		}
	}
}

func sameWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replaySizedist re-executes one analytic /impact.
func (rp *replayer) replaySizedist(a *answered) (exact bool) {
	q := a.o.req
	m := rp.env.modelByName(q.model)
	var res *sizedist.Result
	var err error
	rp.tr.timed("sizedist.Compute", -1, func() { res, err = sizedist.Compute(m, q.sources, sizedist.DefaultOptions()) })
	if err != nil || !sameFloats(res.Dist, a.resp.Dist) {
		rp.mismatch("replay %s: sizedist differs from served", q.url)
		return false
	}
	return res.Exact
}

func (env *environment) modelByName(name string) *core.ICM {
	if name == "tree" {
		return env.sm.tree
	}
	return env.sm.paper
}

func (env *environment) targets(comm bool) []graph.NodeID {
	if comm {
		return env.sm.community
	}
	return nil
}

// replay runs the traced replay of the traced phase and fills the
// per-layer metrics.
func (r *report) replay() error {
	env := r.env
	traced, plain := r.phases[1], r.phases[0]
	var as []*answered
	for _, o := range traced.outcomes {
		if o.status != http.StatusOK {
			continue
		}
		a := &answered{o: o}
		if err := json.Unmarshal(o.body, &a.resp); err != nil {
			return fmt.Errorf("traced answer %s: %w", o.req.url, err)
		}
		as = append(as, a)
	}
	rp := &replayer{env: env, tr: r.tracer, condBatch: map[int32]bool{}}
	served := reconstructBatches(as)
	byKind := map[endpoint][]*servedBatch{}
	for _, b := range served {
		byKind[b.key.ep] = append(byKind[b.key.ep], b)
	}
	idx := 0
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		for _, b := range spread(byKind[ep], replayPerKind) {
			rp.replayBatch(idx, b)
			idx++
		}
	}
	var maxes, analytic []*answered
	for _, a := range as {
		switch {
		case a.o.req.ep == epMaximize && !a.resp.Cached:
			maxes = append(maxes, a)
		case a.o.req.ep == epImpact && a.resp.Mode == "analytic":
			analytic = append(analytic, a)
		}
	}
	for i, a := range spread(maxes, replayPerKind) {
		rp.replayMaximize(i, a)
	}
	exact := 0
	sized := spread(analytic, 8*replayPerKind)
	for _, a := range sized {
		if rp.replaySizedist(a) {
			exact++
		}
	}
	for _, note := range rp.notes {
		fmt.Fprintln(r.stderr, "replay mismatch:", note)
	}
	r.mismatches += rp.mismatches
	r.Correct = r.Correct && rp.mismatches == 0

	spans := r.tracer.spans
	self := selfTimes(spans)
	byName := map[string][]float64{} // durations, ms
	layerSelf := map[string]float64{}
	layerCalls := map[string]float64{}
	for i, s := range spans {
		byName[s.name] = append(byName[s.name], ms(s.dur()))
		layer := s.name[:strings.IndexByte(s.name, '.')]
		layerSelf[layer] += ms(self[i])
		layerCalls[layer]++
	}
	med := func(name string, scale float64) float64 { return median(byName[name]) * scale }

	// Per-step cost: block duration over block length, split by whether
	// the chain was conditioned.
	var stepNs, stepCondNs []float64
	for _, s := range spans {
		if s.name != "mh.Sampler.Step" || s.steps == 0 {
			continue
		}
		ns := float64(s.dur()) / float64(s.steps)
		if rp.condBatch[s.parent] {
			stepCondNs = append(stepCondNs, ns)
		} else {
			stepNs = append(stepNs, ns)
		}
	}

	d := traced.after.sub(traced.before)
	ok := answeredCount(traced)
	var batchTime, sweepTime float64
	minCov := 1.0
	for _, b := range rp.batches {
		batchTime += ms(spans[b].dur())
		if c := childCoverage(spans, b); c < minCov {
			minCov = c
		}
	}
	if minCov < minCoverage {
		r.fault("replay coverage %.3f is below %g: child spans miss part of a replayed batch", minCov, minCoverage)
	}
	for _, s := range spans {
		if s.name == "graph.LaneEngine.Sweep" {
			sweepTime += ms(s.dur())
		}
	}
	// Served chain steps: the replayed chains' mean length per served
	// batch, plus one pool chain per computed /maximize.
	var acc, batchSteps float64
	for _, c := range rp.chains {
		acc += c.acceptance / float64(len(rp.chains))
		batchSteps += float64(c.steps) / float64(len(rp.chains))
	}
	steps := batchSteps * float64(d.batches)
	var cached []float64
	var bodyKB float64
	for _, a := range as {
		if a.resp.Cached {
			cached = append(cached, float64(a.o.latency())/float64(time.Microsecond))
		} else if a.o.req.ep == epMaximize {
			steps += float64(rp.poolSteps)
		}
		bodyKB += float64(len(a.o.body)) / 1024
	}
	var lags []float64
	for _, o := range traced.outcomes {
		lags = append(lags, ms(o.issued.Sub(o.due)))
	}
	sort.Float64s(lags)
	lag := 0.0
	if len(lags) > 0 {
		lag = quantile(lags, 0.99)
	}
	sweeps := d.replays + d.repairs + d.rebuilds
	cpuPlain := ms(plain.cpu) / float64(max(answeredCount(plain), 1))
	cpuTraced := ms(traced.cpu) / float64(max(ok, 1))

	set := func(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }
	set("serve.batch_occupancy", ratio(float64(d.batchedRequests), float64(d.batches)), "req/batch")
	set("serve.lane_utilization", ratio(float64(d.batchedLanes), float64(d.batches)*float64(env.srv.Metrics().LaneBudget())), "ratio")
	set("serve.cache_hit_ratio", ratio(float64(d.hits), float64(d.hits+d.misses)), "ratio")
	set("serve.cached_us", median(cached), "us")
	set("serve.queue_depth_max", float64(traced.queueMax), "count")
	set("serve.wait_ms", median(rp.waits), "ms")
	set("serve.rejected", float64(d.rejected), "count")
	set("serve.timeouts", float64(d.timeouts), "count")
	set("serve.response_kb", ratio(bodyKB, float64(len(as))), "KB")
	set("mh.step_ns", median(stepNs), "ns")
	set("mh.step_cond_ns", median(stepCondNs), "ns")
	set("mh.steps_per_answer", ratio(steps, float64(ok)), "steps")
	set("mh.new_sampler_ms", med("mh.NewSampler", 1), "ms")
	set("mh.acceptance", acc, "ratio")
	set("mh.rr_pool_ms", med("mh.BuildRRPool", 1), "ms")
	set("graph.sweep_us", med("graph.LaneEngine.Sweep", 1000), "us")
	set("graph.sweep_share", ratio(sweepTime, batchTime), "ratio")
	set("graph.repair_ratio", ratio(float64(d.repairs), float64(sweeps)), "ratio")
	set("graph.rebuild_ratio", ratio(float64(d.rebuilds), float64(sweeps)), "ratio")
	set("graph.reverse_sweep_us", med("graph.DiGraph.ReachLanesWideReverseInto", 1000), "us")
	set("core.cond_check_us", med("core.ICM.SatisfiesScratch", 1000), "us")
	set("sizedist.compute_ms", med("sizedist.Compute", 1), "ms")
	set("sizedist.exact_ratio", ratio(float64(exact), float64(len(sized))), "ratio")
	set("influence.select_ms", med("influence.SketchGreedy", 1), "ms")
	set("bench.gen_lag_ms", lag, "ms")
	set("bench.trace_overhead", ratio(cpuTraced, cpuPlain)-1, "ratio")
	set("bench.replay_batches", float64(len(rp.batches)), "count")
	set("bench.replay_coverage", minCov, "ratio")
	// Served requests overlap, so serve reports its span count only;
	// the replay runs one call at a time, so its layers add up.
	set("serve.calls", layerCalls["serve"], "count")
	for _, layer := range []string{"mh", "graph", "core", "sizedist", "influence"} {
		set(layer+".self_ms", layerSelf[layer], "ms")
		set(layer+".calls", layerCalls[layer], "count")
	}
	return nil
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
