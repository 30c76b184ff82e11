package serve

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
)

// serveICM builds a deterministic model for batcher/server tests.
func serveICM(seed uint64, nodes, edges int) *core.ICM {
	r := rng.New(seed)
	g := graph.Random(r, nodes, edges)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 0.2 + 0.6*r.Float64()
	}
	return core.MustNewICM(g, p)
}

// dist pads a cached community's support back to the full vector: the
// one the estimator returned, bit for bit, since every other entry was
// +0.
func (c communityLaw) dist() []float64 {
	out := make([]float64, c.n)
	for i, v := range c.nodes {
		out[v] = c.probs[i]
	}
	return out
}

// dist pads a cached size law's support back to the full vector: the
// one the estimator returned, bit for bit, since every other entry was
// +0.
func (l sizeLaw) dist() []float64 {
	out := make([]float64, l.length)
	copy(out, l.support)
	return out
}

// impactHist folds per-sample impact counts into a normalized histogram
// over 0..length-1 new activations: the full vector a sampled law keeps
// the support of.
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

// testQuery is a /flow query from source to sink on m under the served
// schedule, drawing samples samples from seed.
func testQuery(m *core.ICM, source, sink graph.NodeID, samples int, seed uint64) *query {
	opts := mh.DefaultOptions(m.NumEdges())
	opts.Samples = samples
	return &query{
		model: Model{Name: "m", ICM: m, Digest: ModelDigest(m)},
		kind:  kindFlow, source: source, sink: sink, opts: opts, seed: seed,
	}
}

// cacheKey returns q's cache key as the string a batch member keeps.
func (q *query) cacheKey() string { return string(q.appendCacheKey(nil)) }

// join joins q to its batch under q's cache key.
func join(t *testing.T, b *batcher, ctx context.Context, q *query) *member {
	t.Helper()
	mem, err := b.join(ctx, q, q.cacheKey())
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

// TestBatcherWindowFlush: a lone request arms its batch's window at
// join and flushes when (and only when) the fake clock crosses it, and
// its answer is bit-identical to scalar mh.FlowProb with the same seed
// and options.
func TestBatcherWindowFlush(t *testing.T) {
	m := serveICM(3, 20, 60)
	clock := newFakeClock()
	met := &Metrics{}
	b := newBatcher(10*time.Millisecond, 1, 4, mh.LaneWidth, clock, met, newLRUCache(8, 0), newLRUCache(0, 0))
	defer b.drain()

	q := testQuery(m, 0, 5, 200, 7)
	mem := join(t, b, context.Background(), q)
	if got := clock.Waiters(); got != 1 {
		t.Fatalf("%d window timers armed at join, want 1", got)
	}
	clock.Advance(9 * time.Millisecond)
	select {
	case <-mem.done:
		t.Fatal("batch flushed before the window expired")
	case <-time.After(20 * time.Millisecond):
	}
	clock.Advance(time.Millisecond)
	res := <-mem.done
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want, err := mh.FlowProb(m, 0, 5, nil, q.opts, rng.New(q.seed))
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer != want {
		t.Errorf("batched prob %v != scalar FlowProb %v (must be bit-identical)", res.Answer, want)
	}
	if res.BatchSize != 1 || res.Lanes != 1 {
		t.Errorf("BatchSize/Lanes = %d/%d, want 1/1", res.BatchSize, res.Lanes)
	}
	if got := met.Batches.Load(); got != 1 {
		t.Errorf("Batches = %d, want 1", got)
	}
}

// TestBatcherLaneDedupe: identical queries share one lane and both
// members receive the same result from one sweep.
func TestBatcherLaneDedupe(t *testing.T) {
	m := serveICM(3, 20, 60)
	clock := newFakeClock()
	met := &Metrics{}
	b := newBatcher(time.Millisecond, 1, 4, mh.LaneWidth, clock, met, newLRUCache(8, 0), newLRUCache(0, 0))
	defer b.drain()

	m1 := join(t, b, context.Background(), testQuery(m, 2, 9, 100, 1))
	m2 := join(t, b, context.Background(), testQuery(m, 2, 9, 100, 1))
	if m1.lane != m2.lane {
		t.Fatalf("identical queries got lanes %d and %d, want shared", m1.lane, m2.lane)
	}
	clock.Advance(time.Millisecond)
	r1, r2 := <-m1.done, <-m2.done
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	if r1.Answer != r2.Answer {
		t.Errorf("co-laned members disagree: %v vs %v", r1.Answer, r2.Answer)
	}
	if r1.Lanes != 1 || r1.BatchSize != 2 {
		t.Errorf("Lanes/BatchSize = %d/%d, want 1/2", r1.Lanes, r1.BatchSize)
	}
}

// TestBatcherFlushOnFull: the lane budget's final distinct lane (here a
// 64-lane budget) flushes immediately, without the window expiring, and
// stops the window's timer.
func TestBatcherFlushOnFull(t *testing.T) {
	m := serveICM(5, 70, 200)
	clock := newFakeClock() // never advanced: only lane-full can flush
	met := &Metrics{}
	b := newBatcher(time.Hour, 2, 4, mh.LaneWidth, clock, met, newLRUCache(0, 0), newLRUCache(0, 0))
	defer b.drain()

	members := make([]*member, 0, mh.LaneWidth)
	for i := 0; i < mh.LaneWidth; i++ {
		q := testQuery(m, graph.NodeID(i%8), graph.NodeID(10+i/8), 50, 3)
		members = append(members, join(t, b, context.Background(), q))
	}
	if got := clock.Waiters(); got != 0 {
		t.Errorf("%d window timers still armed after a lane-full flush, want 0", got)
	}
	for i, mem := range members {
		res := <-mem.done
		if res.Err != nil {
			t.Fatalf("member %d: %v", i, res.Err)
		}
		if res.Lanes != mh.LaneWidth || res.BatchSize != mh.LaneWidth {
			t.Fatalf("member %d: Lanes/BatchSize = %d/%d, want %d/%d",
				i, res.Lanes, res.BatchSize, mh.LaneWidth, mh.LaneWidth)
		}
	}
	if got := met.Batches.Load(); got != 1 {
		t.Errorf("Batches = %d, want 1 (flush-on-full)", got)
	}
}

// TestBatcherOverload: with no workers and no queue slack, a batch the
// window flushes is refused with ErrOverloaded instead of blocking.
func TestBatcherOverload(t *testing.T) {
	m := serveICM(3, 20, 60)
	clock := newFakeClock()
	met := &Metrics{}
	b := &batcher{
		window:     time.Millisecond,
		laneBudget: mh.LaneWidth,
		clock:      clock,
		metrics:    met,
		cache:      newLRUCache(0, 0),
		pending:    make(map[batchKey]*pendingBatch),
		jobs:       make(chan *pendingBatch), // unbuffered, no workers draining it
	}
	met.queueDepth.Store(func() int { return len(b.jobs) })

	mem := join(t, b, context.Background(), testQuery(m, 0, 1, 10, 1))
	if got := clock.Waiters(); got != 1 {
		t.Fatalf("%d window timers armed, want 1", got)
	}
	clock.Advance(time.Millisecond)
	res := <-mem.done
	if !errors.Is(res.Err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", res.Err)
	}
	if got := met.Rejected.Load(); got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
}

// TestBatcherDrain: drain flushes pending batches (delivering results,
// not dropping them) and subsequent joins are refused.
func TestBatcherDrain(t *testing.T) {
	m := serveICM(3, 20, 60)
	clock := newFakeClock() // window never fires; only drain can flush
	met := &Metrics{}
	b := newBatcher(time.Hour, 1, 4, mh.LaneWidth, clock, met, newLRUCache(0, 0), newLRUCache(0, 0))

	mem := join(t, b, context.Background(), testQuery(m, 1, 4, 50, 2))
	b.drain()
	res := <-mem.done
	if res.Err != nil {
		t.Fatalf("drained batch returned error %v, want a computed result", res.Err)
	}
	q := testQuery(m, 1, 4, 50, 2)
	if _, err := b.join(context.Background(), q, q.cacheKey()); !errors.Is(err, ErrDraining) {
		t.Errorf("join after drain = %v, want ErrDraining", err)
	}
	if got := met.Rejected.Load(); got != 1 {
		t.Errorf("Rejected = %d, want 1 (the refused join)", got)
	}
}

// TestBatcherDrainLeavesNothingRunning: a drain flushes the batches
// open on several keys and stops their window timers, so a window that
// expires after it fires nothing: no send on the closed job queue and
// no armed timer left. Run under -race.
func TestBatcherDrainLeavesNothingRunning(t *testing.T) {
	m := serveICM(3, 20, 60)
	clock := newFakeClock()
	met := &Metrics{}
	b := newBatcher(time.Millisecond, 1, 8, mh.LaneWidth, clock, met, newLRUCache(0, 0), newLRUCache(0, 0))

	var members []*member
	for seed := uint64(1); seed <= 4; seed++ {
		members = append(members, join(t, b, context.Background(), testQuery(m, 0, 5, 20, seed)))
	}
	if got := clock.Waiters(); got != 4 {
		t.Fatalf("%d window timers armed, want one per open batch (4)", got)
	}
	clock.mu.Lock()
	late := slices.Clone(clock.waiters)
	clock.mu.Unlock()
	b.drain()
	if got := clock.Waiters(); got != 0 {
		t.Errorf("%d window timers still armed after the drain, want 0", got)
	}
	// A real timer can fire after its batch flushed, when Stop loses the
	// race with it: the callback must find the batch flushed and send
	// nothing on the closed job queue.
	for _, w := range late {
		w.f()
	}
	clock.Advance(time.Hour)
	for i, mem := range members {
		if res := <-mem.done; res.Err != nil {
			t.Errorf("member %d: %v", i, res.Err)
		}
	}
	if got := met.Batches.Load(); got != 4 {
		t.Errorf("Batches = %d, want 4", got)
	}
}

// TestBatcherAllMembersCancelled: when every member of a batch has
// cancelled, the batch ends with ErrInterrupted instead of running to
// completion, and the abort is not counted as a server error.
func TestBatcherAllMembersCancelled(t *testing.T) {
	m := serveICM(3, 20, 60)
	clock := newFakeClock()
	met := &Metrics{}
	b := newBatcher(time.Millisecond, 1, 4, mh.LaneWidth, clock, met, newLRUCache(0, 0), newLRUCache(0, 0))
	defer b.drain()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled at join: the sweep must abort early
	mem := join(t, b, ctx, testQuery(m, 0, 1, 1_000_000, 1))
	clock.Advance(time.Millisecond)
	res := <-mem.done
	if !errors.Is(res.Err, mh.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", res.Err)
	}
	if got := met.Errors.Load(); got != 0 {
		t.Errorf("Errors = %d, want 0 (client cancellation is not a server fault)", got)
	}
}

// TestBatcherSurvivorUnaffectedByCancelledCobatch: a co-batched
// cancellation must not change a surviving member's estimate — the
// survivor's answer stays bit-identical to scalar mh.FlowProb.
func TestBatcherSurvivorUnaffectedByCancelledCobatch(t *testing.T) {
	m := serveICM(3, 20, 60)
	clock := newFakeClock()
	met := &Metrics{}
	b := newBatcher(time.Millisecond, 1, 4, mh.LaneWidth, clock, met, newLRUCache(0, 0), newLRUCache(0, 0))
	defer b.drain()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	join(t, b, ctx, testQuery(m, 0, 3, 300, 11))
	q := testQuery(m, 2, 8, 300, 11)
	surv := join(t, b, context.Background(), q)
	clock.Advance(time.Millisecond)
	res := <-surv.done
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want, err := mh.FlowProb(m, 2, 8, nil, q.opts, rng.New(q.seed))
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer != want {
		t.Errorf("survivor prob %v != scalar FlowProb %v: co-batched cancellation changed an answer", res.Answer, want)
	}
}

// startTest drives batches through a batcher with an enabled start
// cache, on a model under one required flow.
type startTest struct {
	t       *testing.T
	m       *core.ICM
	conds   []core.FlowCondition
	condKey string
	clock   *fakeClock
	met     *Metrics
	starts  *lruCache
	b       *batcher
}

// startTestModel is the model and evidence startTest runs under.
func startTestModel() (*core.ICM, []core.FlowCondition, string) {
	conds, condKey, _ := canonicalConds([]core.FlowCondition{{Source: 0, Sink: 5, Require: true}})
	return serveICM(3, 20, 60), conds, condKey
}

func newStartTest(t *testing.T, workers, budget int) *startTest {
	m, conds, condKey := startTestModel()
	st := &startTest{t: t, m: m, conds: conds, condKey: condKey, clock: newFakeClock(), met: &Metrics{}}
	st.starts = newLRUCache(64, budget)
	st.b = newBatcher(time.Millisecond, workers, 4, mh.LaneWidth, st.clock, st.met, newLRUCache(0, 0), st.starts)
	t.Cleanup(st.b.drain)
	return st
}

// query is a query of the given kind under the test's evidence; join
// fills in its nodes.
func (st *startTest) query(kind queryKind, samples int, seed uint64) query {
	q := *testQuery(st.m, 0, 0, samples, seed)
	q.kind, q.conds, q.condKey = kind, st.conds, st.condKey
	return q
}

// join adds q on the given source (flow: to sink 9; impact: the set
// {source, 4}).
func (st *startTest) join(ctx context.Context, q query, source graph.NodeID) *member {
	st.t.Helper()
	switch q.kind {
	case kindFlow:
		q.source, q.sink = source, 9
	case kindCommunity:
		q.source = source
	case kindImpact:
		q.nodes = []graph.NodeID{source, 4}
		q.nodesKey = sourcesKey(q.nodes)
	}
	return join(st.t, st.b, ctx, &q)
}

// run fires the window of every open batch and returns the members'
// results in order.
func (st *startTest) run(mems ...*member) []flowResult {
	st.t.Helper()
	st.clock.Advance(time.Millisecond)
	out := make([]flowResult, len(mems))
	for i, mem := range mems {
		out[i] = <-mem.done
	}
	return out
}

// fresh runs est on a fresh chain for q, as the library does, and
// returns its post-burn-in acceptance rate.
func (st *startTest) fresh(q query, est func(s *mh.Sampler, opts mh.Options) error) float64 {
	st.t.Helper()
	s, err := mh.NewSampler(st.m, st.conds, rng.New(q.seed))
	if err != nil {
		st.t.Fatal(err)
	}
	if err := est(s, q.opts); err != nil {
		st.t.Fatal(err)
	}
	return s.PostBurnInAcceptanceRate()
}

func (st *startTest) counts(hits, misses int64) {
	st.t.Helper()
	if h, m := st.met.StartHits.Load(), st.met.StartMisses.Load(); h != hits || m != misses {
		st.t.Errorf("start hits/misses = %d/%d, want %d/%d", h, m, hits, misses)
	}
}

// TestBatcherStartSharedAcrossKinds: flow, community and impact batches
// of different sample counts under one (conditions, seed) begin from
// one kept start, one miss and then two hits, and each answers exactly
// as the library does on a fresh chain, acceptance rate included.
func TestBatcherStartSharedAcrossKinds(t *testing.T) {
	st := newStartTest(t, 1, startBudget)
	const seed = 13
	n := st.m.NumNodes()

	flowQ := st.query(kindFlow, 100, seed)
	flow := st.run(st.join(context.Background(), flowQ, 2))[0]
	commQ := st.query(kindCommunity, 150, seed)
	comm := st.run(st.join(context.Background(), commQ, 2))[0]
	impQ := st.query(kindImpact, 80, seed)
	imp := st.run(st.join(context.Background(), impQ, 1))[0]
	for _, r := range []flowResult{flow, comm, imp} {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st.counts(2, 1)
	if st.starts.Len() != 1 || st.met.StartBytes() != st.starts.Bytes() || st.starts.Bytes() <= 0 {
		t.Errorf("kept %d starts of %d bytes (gauge %d), want one", st.starts.Len(), st.starts.Bytes(), st.met.StartBytes())
	}

	var probs []float64
	acc := st.fresh(flowQ, func(s *mh.Sampler, opts mh.Options) (err error) {
		probs, err = mh.FlowProbBatchOn(s, []mh.FlowPair{{Source: 2, Sink: 9}}, opts)
		return err
	})
	if math.Float64bits(flow.Answer.(float64)) != math.Float64bits(probs[0]) || flow.Acceptance != acc {
		t.Errorf("flow: prob %v acceptance %v, library %v %v", flow.Answer, flow.Acceptance, probs[0], acc)
	}
	var comms [][]float64
	acc = st.fresh(commQ, func(s *mh.Sampler, opts mh.Options) (err error) {
		comms, err = mh.CommunityFlowProbsBatchOn(s, []graph.NodeID{2}, opts)
		return err
	})
	if comm.Acceptance != acc {
		t.Errorf("community: acceptance %v, library %v", comm.Acceptance, acc)
	}
	for v, p := range comm.Answer.(communityLaw).dist() {
		if math.Float64bits(p) != math.Float64bits(comms[0][v]) {
			t.Fatalf("community: node %d prob %v, library %v", v, p, comms[0][v])
		}
	}
	var impacts [][]int
	acc = st.fresh(impQ, func(s *mh.Sampler, opts mh.Options) (err error) {
		impacts, err = mh.ImpactDistributionBatchOn(s, [][]graph.NodeID{{1, 4}}, opts)
		return err
	})
	if imp.Acceptance != acc {
		t.Errorf("impact: acceptance %v, library %v", imp.Acceptance, acc)
	}
	want := impactHist(impacts[0], n-1)
	for k, p := range imp.Answer.(sizeLaw).dist() {
		if math.Float64bits(p) != math.Float64bits(want[k]) {
			t.Fatalf("impact: bin %d %v, library %v", k, p, want[k])
		}
	}
}

// TestBatcherConcurrentColdStart: two batches on one cold start key run
// at once on two workers; each may build the start (there is no
// singleflight), both answer as the library does, and one start is
// kept. Run under -race.
func TestBatcherConcurrentColdStart(t *testing.T) {
	st := newStartTest(t, 2, startBudget)
	const seed = 21
	flowQ, commQ := st.query(kindFlow, 60, seed), st.query(kindCommunity, 40, seed)
	res := st.run(st.join(context.Background(), flowQ, 3), st.join(context.Background(), commQ, 3))
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if h, m := st.met.StartHits.Load(), st.met.StartMisses.Load(); h+m != 2 || m < 1 {
		t.Errorf("start hits/misses = %d/%d, want two lookups, at least one miss", h, m)
	}
	if st.starts.Len() != 1 {
		t.Errorf("kept %d starts, want 1", st.starts.Len())
	}
	var probs []float64
	st.fresh(flowQ, func(s *mh.Sampler, opts mh.Options) (err error) {
		probs, err = mh.FlowProbBatchOn(s, []mh.FlowPair{{Source: 3, Sink: 9}}, opts)
		return err
	})
	if res[0].Answer != probs[0] {
		t.Errorf("flow prob %v, library %v", res[0].Answer, probs[0])
	}
	var comms [][]float64
	st.fresh(commQ, func(s *mh.Sampler, opts mh.Options) (err error) {
		comms, err = mh.CommunityFlowProbsBatchOn(s, []graph.NodeID{3}, opts)
		return err
	})
	for v, p := range res[1].Answer.(communityLaw).dist() {
		if p != comms[0][v] {
			t.Fatalf("community node %d: %v, library %v", v, p, comms[0][v])
		}
	}
}

// TestBatcherCancelledBurnInKeepsNoStart: a batch whose last member
// cancels once the batch has begun stops during burn-in and keeps no
// start. The burn-in is long enough (10^8 steps) that the cancellation,
// which reaches the batch asynchronously, lands inside it.
func TestBatcherCancelledBurnInKeepsNoStart(t *testing.T) {
	st := newStartTest(t, 1, startBudget)
	q := st.query(kindFlow, 50, 5)
	q.opts.BurnIn = 100_000_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mem := st.join(ctx, q, 2)
	st.clock.Advance(time.Millisecond)
	waitUntil(t, "the batch to begin its burn-in", func() bool { return st.met.StartMisses.Load() == 1 })
	cancel()
	r := <-mem.done
	if !errors.Is(r.Err, mh.ErrInterrupted) || !strings.Contains(r.Err.Error(), "burn-in") {
		t.Fatalf("err = %v, want ErrInterrupted during burn-in", r.Err)
	}
	st.counts(0, 1)
	if st.starts.Len() != 0 || st.met.StartBytes() != 0 {
		t.Errorf("an interrupted burn-in kept %d starts (%d bytes)", st.starts.Len(), st.met.StartBytes())
	}
}

// TestBatcherSkipsBatchNobodyWaitsFor: a batch whose members all
// cancelled before a worker took it builds no sampler, runs no burn-in
// and keeps no start, even when the burn-in is short enough to finish
// before the cancellation could reach the chain's interrupt hook. It
// counts as neither an executed batch nor a server error.
func TestBatcherSkipsBatchNobodyWaitsFor(t *testing.T) {
	st := newStartTest(t, 1, startBudget)
	q := st.query(kindFlow, 50, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, b := st.join(ctx, q, 2), st.join(ctx, q, 3)
	for i, r := range st.run(a, b) {
		if !errors.Is(r.Err, mh.ErrInterrupted) {
			t.Fatalf("member %d: err = %v, want ErrInterrupted", i, r.Err)
		}
	}
	st.counts(0, 0)
	if st.starts.Len() != 0 {
		t.Errorf("a batch nobody waited for kept %d starts", st.starts.Len())
	}
	if got, errs := st.met.Batches.Load(), st.met.Errors.Load(); got != 0 || errs != 0 {
		t.Errorf("batches = %d, errors = %d, want 0 and 0", got, errs)
	}
}

// TestBatcherStartBudgetEvictsLRU: with room for two and a half starts,
// a third evicts the least recently used one, and the kept bytes never
// exceed the budget.
func TestBatcherStartBudgetEvictsLRU(t *testing.T) {
	m, conds, _ := startTestModel()
	s, err := mh.NewSampler(m, conds, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Every start holds the same state and sums; the witness path in
	// its certificate differs, so leave room for it.
	size := s.Keep().Bytes()
	budget := 2*size + size/2
	st := newStartTest(t, 1, budget)
	var hits, misses int64
	for i, step := range []struct {
		seed uint64
		hit  bool
	}{{1, false}, {2, false}, {1, true}, {3, false}, {1, true}, {2, false}} {
		if r := st.run(st.join(context.Background(), st.query(kindFlow, 20, step.seed), 2))[0]; r.Err != nil {
			t.Fatal(r.Err)
		}
		if step.hit {
			hits++
		} else {
			misses++
		}
		if h, m := st.met.StartHits.Load(), st.met.StartMisses.Load(); h != hits || m != misses {
			t.Fatalf("step %d (seed %d): start hits/misses = %d/%d, want %d/%d", i, step.seed, h, m, hits, misses)
		}
		if got := st.met.StartBytes(); got > budget || st.starts.Len() > 2 {
			t.Fatalf("step %d: %d starts hold %d bytes, budget %d", i, st.starts.Len(), got, budget)
		}
	}
}
