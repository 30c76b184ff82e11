package serve

import (
	"context"
	"errors"
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
	b := newBatcher(10*time.Millisecond, 1, 4, mh.LaneWidth, clock, met, newLRUCache(8))
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
	if res.Prob != want {
		t.Errorf("batched prob %v != scalar FlowProb %v (must be bit-identical)", res.Prob, want)
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
	b := newBatcher(time.Millisecond, 1, 4, mh.LaneWidth, clock, met, newLRUCache(8))
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
	if r1.Prob != r2.Prob {
		t.Errorf("co-laned members disagree: %v vs %v", r1.Prob, r2.Prob)
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
	b := newBatcher(time.Hour, 2, 4, mh.LaneWidth, clock, met, newLRUCache(0))
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
		cache:   newLRUCache(0),
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
	b := newBatcher(time.Hour, 1, 4, mh.LaneWidth, clock, met, newLRUCache(0))

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

// TestBatcherAllMembersCancelled: when every member of a batch cancels,
// the sweep aborts via the Interrupt hook instead of running to
// completion, and the abort is not counted as a server error.
func TestBatcherAllMembersCancelled(t *testing.T) {
	m := serveICM(3, 20, 60)
	clock := newFakeClock()
	met := &Metrics{}
	b := newBatcher(time.Millisecond, 1, 4, mh.LaneWidth, clock, met, newLRUCache(0))
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
	b := newBatcher(time.Millisecond, 1, 4, mh.LaneWidth, clock, met, newLRUCache(0))
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
	if res.Prob != want {
		t.Errorf("survivor prob %v != scalar FlowProb %v: co-batched cancellation changed an answer", res.Prob, want)
	}
}
