package serve

import (
	"context"
	"errors"
	"math"
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

func testBatchKey(m *core.ICM, samples int, seed uint64) batchKey {
	opts := mh.DefaultOptions(m.NumEdges())
	return batchKey{
		digest: ModelDigest(m), kind: kindFlow,
		burnIn: opts.BurnIn, thin: opts.Thin, samples: samples, seed: seed,
	}
}

// TestBatcherWindowFlush: a lone request flushes when (and only when)
// the fake clock crosses the batching window, and its answer is
// bit-identical to scalar mh.FlowProb with the same seed and options.
func TestBatcherWindowFlush(t *testing.T) {
	m := serveICM(3, 20, 60)
	clock := newFakeClock()
	met := &Metrics{}
	b := newBatcher(10*time.Millisecond, 1, 4, mh.LaneWidth, clock, met, newLRUCache(8, 0), newLRUCache(0, 0))
	defer b.drain()

	key := testBatchKey(m, 200, 7)
	mem, err := b.join(context.Background(), key, m, nil, mh.FlowPair{Source: 0, Sink: 5}, nil, "", "k1")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-mem.done:
		t.Fatal("batch flushed before the window expired")
	case <-time.After(20 * time.Millisecond):
	}
	waitUntil(t, "window collector to arm", func() bool { return clock.Waiters() > 0 })
	clock.Advance(10 * time.Millisecond)
	res := <-mem.done
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	opts := mh.Options{BurnIn: key.burnIn, Thin: key.thin, Samples: key.samples}
	want, err := mh.FlowProb(m, 0, 5, nil, opts, rng.New(key.seed))
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

	key := testBatchKey(m, 100, 1)
	pair := mh.FlowPair{Source: 2, Sink: 9}
	m1, err := b.join(context.Background(), key, m, nil, pair, nil, "", "k")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := b.join(context.Background(), key, m, nil, pair, nil, "", "k")
	if err != nil {
		t.Fatal(err)
	}
	if m1.lane != m2.lane {
		t.Fatalf("identical queries got lanes %d and %d, want shared", m1.lane, m2.lane)
	}
	waitUntil(t, "window collector to arm", func() bool { return clock.Waiters() > 0 })
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
// 64-lane budget) flushes immediately, without the window expiring.
func TestBatcherFlushOnFull(t *testing.T) {
	m := serveICM(5, 70, 200)
	clock := newFakeClock() // never advanced: only lane-full can flush
	met := &Metrics{}
	b := newBatcher(time.Hour, 2, 4, mh.LaneWidth, clock, met, newLRUCache(0, 0), newLRUCache(0, 0))
	defer b.drain()

	key := testBatchKey(m, 50, 3)
	members := make([]*member, 0, mh.LaneWidth)
	for i := 0; i < mh.LaneWidth; i++ {
		pair := mh.FlowPair{Source: graph.NodeID(i % 8), Sink: graph.NodeID(10 + i/8)}
		mem, err := b.join(context.Background(), key, m, nil, pair, nil, "", "")
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, mem)
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

// TestBatcherOverload: with no workers and no queue slack, a flushed
// batch is refused with ErrOverloaded instead of blocking.
func TestBatcherOverload(t *testing.T) {
	m := serveICM(3, 20, 60)
	clock := newFakeClock()
	met := &Metrics{}
	b := &batcher{
		window:  time.Millisecond,
		clock:   clock,
		metrics: met,
		cache:   newLRUCache(0, 0),
		pending: make(map[batchKey]*pendingBatch),
		jobs:    make(chan *pendingBatch), // unbuffered, no workers draining it
	}
	met.queueDepth.Store(func() int { return len(b.jobs) })

	mem, err := b.join(context.Background(), testBatchKey(m, 10, 1), m, nil, mh.FlowPair{Source: 0, Sink: 1}, nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "window collector to arm", func() bool { return clock.Waiters() > 0 })
	clock.Advance(time.Millisecond)
	res := <-mem.done
	if !errors.Is(res.Err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", res.Err)
	}
	if got := met.Rejected.Load(); got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
	b.collectors.Wait()
}

// TestBatcherDrain: drain flushes pending batches (delivering results,
// not dropping them) and subsequent joins are refused.
func TestBatcherDrain(t *testing.T) {
	m := serveICM(3, 20, 60)
	clock := newFakeClock() // window never fires; only drain can flush
	met := &Metrics{}
	b := newBatcher(time.Hour, 1, 4, mh.LaneWidth, clock, met, newLRUCache(0, 0), newLRUCache(0, 0))

	mem, err := b.join(context.Background(), testBatchKey(m, 50, 2), m, nil, mh.FlowPair{Source: 1, Sink: 4}, nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	b.drain()
	res := <-mem.done
	if res.Err != nil {
		t.Fatalf("drained batch returned error %v, want a computed result", res.Err)
	}
	if _, err := b.join(context.Background(), testBatchKey(m, 50, 2), m, nil, mh.FlowPair{Source: 1, Sink: 4}, nil, "", ""); !errors.Is(err, ErrDraining) {
		t.Errorf("join after drain = %v, want ErrDraining", err)
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
	mem, err := b.join(ctx, testBatchKey(m, 1_000_000, 1), m, nil, mh.FlowPair{Source: 0, Sink: 1}, nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "window collector to arm", func() bool { return clock.Waiters() > 0 })
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

	key := testBatchKey(m, 300, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.join(ctx, key, m, nil, mh.FlowPair{Source: 0, Sink: 3}, nil, "", ""); err != nil {
		t.Fatal(err)
	}
	surv, err := b.join(context.Background(), key, m, nil, mh.FlowPair{Source: 2, Sink: 8}, nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "window collector to arm", func() bool { return clock.Waiters() > 0 })
	clock.Advance(time.Millisecond)
	res := <-surv.done
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	opts := mh.Options{BurnIn: key.burnIn, Thin: key.thin, Samples: key.samples}
	want, err := mh.FlowProb(m, 2, 8, nil, opts, rng.New(key.seed))
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
	conds, condKey, _ := CanonicalConds([]core.FlowCondition{{Source: 0, Sink: 5, Require: true}})
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

func (st *startTest) key(kind queryKind, samples int, seed uint64) batchKey {
	k := testBatchKey(st.m, samples, seed)
	k.kind, k.conds = kind, st.condKey
	return k
}

// join adds a query of key's kind on the given source (flow: to sink 9;
// impact: the set {source, 4}).
func (st *startTest) join(ctx context.Context, key batchKey, source graph.NodeID) *member {
	st.t.Helper()
	pair := mh.FlowPair{Source: source, Sink: 9}
	var sources []graph.NodeID
	switch key.kind {
	case kindCommunity:
		pair.Sink = source
	case kindImpact:
		sources = []graph.NodeID{source, 4}
	}
	mem, err := st.b.join(ctx, key, st.m, st.conds, pair, sources, sourcesKey(sources), "")
	if err != nil {
		st.t.Fatal(err)
	}
	return mem
}

// run waits until waiters window collectors have armed, fires the
// window, and returns the members' results in order.
func (st *startTest) run(waiters int, mems ...*member) []flowResult {
	st.t.Helper()
	waitUntil(st.t, "window collectors to arm", func() bool { return st.clock.Waiters() >= waiters })
	st.clock.Advance(time.Millisecond)
	out := make([]flowResult, len(mems))
	for i, mem := range mems {
		out[i] = <-mem.done
	}
	return out
}

// fresh runs est on a fresh chain for key, as the library does, and
// returns its post-burn-in acceptance rate.
func (st *startTest) fresh(key batchKey, est func(s *mh.Sampler, opts mh.Options) error) float64 {
	st.t.Helper()
	s, err := mh.NewSampler(st.m, st.conds, rng.New(key.seed))
	if err != nil {
		st.t.Fatal(err)
	}
	if err := est(s, mh.Options{BurnIn: key.burnIn, Thin: key.thin, Samples: key.samples}); err != nil {
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

	flowKey := st.key(kindFlow, 100, seed)
	flow := st.run(1, st.join(context.Background(), flowKey, 2))[0]
	commKey := st.key(kindCommunity, 150, seed)
	comm := st.run(1, st.join(context.Background(), commKey, 2))[0]
	impKey := st.key(kindImpact, 80, seed)
	imp := st.run(1, st.join(context.Background(), impKey, 1))[0]
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
	acc := st.fresh(flowKey, func(s *mh.Sampler, opts mh.Options) (err error) {
		probs, err = mh.FlowProbBatchOn(s, []mh.FlowPair{{Source: 2, Sink: 9}}, opts)
		return err
	})
	if math.Float64bits(flow.Answer.(float64)) != math.Float64bits(probs[0]) || flow.Acceptance != acc {
		t.Errorf("flow: prob %v acceptance %v, library %v %v", flow.Answer, flow.Acceptance, probs[0], acc)
	}
	var comms [][]float64
	acc = st.fresh(commKey, func(s *mh.Sampler, opts mh.Options) (err error) {
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
	acc = st.fresh(impKey, func(s *mh.Sampler, opts mh.Options) (err error) {
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
	flowKey, commKey := st.key(kindFlow, 60, seed), st.key(kindCommunity, 40, seed)
	res := st.run(2, st.join(context.Background(), flowKey, 3), st.join(context.Background(), commKey, 3))
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
	st.fresh(flowKey, func(s *mh.Sampler, opts mh.Options) (err error) {
		probs, err = mh.FlowProbBatchOn(s, []mh.FlowPair{{Source: 3, Sink: 9}}, opts)
		return err
	})
	if res[0].Answer != probs[0] {
		t.Errorf("flow prob %v, library %v", res[0].Answer, probs[0])
	}
	var comms [][]float64
	st.fresh(commKey, func(s *mh.Sampler, opts mh.Options) (err error) {
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
	key := st.key(kindFlow, 50, 5)
	key.burnIn = 100_000_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mem := st.join(ctx, key, 2)
	waitUntil(t, "window collector to arm", func() bool { return st.clock.Waiters() > 0 })
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
	key := st.key(kindFlow, 50, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, b := st.join(ctx, key, 2), st.join(ctx, key, 3)
	for i, r := range st.run(1, a, b) {
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
		if r := st.run(1, st.join(context.Background(), st.key(kindFlow, 20, step.seed), 2))[0]; r.Err != nil {
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
