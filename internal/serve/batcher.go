package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
)

// Batching errors surfaced to handlers (mapped to 503s).
var (
	// ErrDraining is returned to requests arriving after shutdown began.
	ErrDraining = errors.New("serve: server draining")
	// ErrOverloaded is returned when the worker queue is saturated and a
	// flushed batch cannot be enqueued.
	ErrOverloaded = errors.New("serve: worker queue saturated")
)

// queryKind separates end-to-end flow queries, community queries, and
// impact (cascade-size) queries; the three use different estimators and
// cannot share a batch.
type queryKind int8

const (
	kindFlow queryKind = iota
	kindCommunity
	kindImpact
)

// batchKey identifies the chain a query must run on. Two requests
// coalesce into one batch exactly when every field matches: same model,
// same conditioning (canonical string), same chain schedule, same seed.
// Anything else would change the answer, so it gets its own chain.
type batchKey struct {
	digest  string
	kind    queryKind
	conds   string
	burnIn  int
	thin    int
	samples int
	seed    uint64
}

// startKey names the burned-in chain start a batch on k begins from.
// Burn-in reads the model, the conditions, BurnIn and the seed. It never
// reads the query kind or Samples, nor Thin, which only spaces its
// interrupt polls and draws no randomness. So every batch under one
// evidence set and seed shares a start, whatever its kind or page size.
func (k batchKey) startKey() string {
	return fmt.Sprintf("%s|%s|%d|%d", k.digest, k.conds, k.burnIn, k.seed)
}

// flowResult is what a batch delivers to each member request.
type flowResult struct {
	Prob       float64   // kindFlow: Pr[source ~> sink | conds]
	Community  []float64 // kindCommunity: Pr[source ~> v] per node
	Impact     []float64 // kindImpact: normalized cascade-size histogram
	BatchSize  int       // requests served by the batch
	Lanes      int       // distinct queries (lanes) the batch carried
	Acceptance float64   // chain's post-burn-in acceptance rate
	Err        error
}

// member is one request waiting on a batch: its lane (query slot), its
// cancellation context, the cache key to fill on success, and a
// 1-buffered channel the batch delivers on (the single send never
// blocks, even if the requester has already given up).
type member struct {
	lane int
	//flowlint:ignore ctxleak -- queued request carries its caller's cancellation into the batch that serves it
	ctx      context.Context
	cacheKey string
	done     chan flowResult
}

// pendingBatch accumulates members during the batching window. A lane
// is one distinct query of the batch, and lanes are deduplicated: two
// identical queries share a lane (or, for impact, a lane span), so a
// budget's worth of identical requests still fits one batch with one
// lane occupied. Flow and community queries occupy one
// lane each (pairs/laneIndex); impact queries occupy one lane per
// distinct source of their canonical source set (sets/setIndex), and
// lanes tracks the running total either way.
type pendingBatch struct {
	key       batchKey
	model     *core.ICM
	conds     []core.FlowCondition
	pairs     []mh.FlowPair
	laneIndex map[mh.FlowPair]int
	sets      [][]graph.NodeID
	setIndex  map[string]int
	lanes     int
	members   []*member
	flushed   bool
	full      chan struct{} // closed on flush; wakes the window collector
}

// batcher coalesces concurrent same-chain queries into batches of up to
// laneBudget distinct queries. A batch flushes when its lane set fills
// the budget or when the batching window expires, whichever comes
// first; flushed batches run on a bounded worker pool, each as one chain
// whose thinned samples answer every query with its own traversal. A
// chain begins from the burned-in start its batch key names (see
// startKey): starts keeps a compact copy of each, so only the first
// batch on a start pays for NewSampler and burn-in. The window timer
// comes from the injected Clock, so tests drive flushes
// deterministically.
type batcher struct {
	window     time.Duration
	laneBudget int
	clock      Clock
	metrics    *Metrics
	cache      *lruCache
	starts     *lruCache

	mu      sync.Mutex
	pending map[batchKey]*pendingBatch
	jobs    chan *pendingBatch

	collectors sync.WaitGroup
	workers    sync.WaitGroup
	draining   bool
	drainOnce  sync.Once
}

func newBatcher(window time.Duration, workers, queueCap, laneBudget int, clock Clock, m *Metrics, cache, starts *lruCache) *batcher {
	b := &batcher{
		window:     window,
		laneBudget: laneBudget,
		clock:      clock,
		metrics:    m,
		cache:      cache,
		starts:     starts,
		pending:    make(map[batchKey]*pendingBatch),
		jobs:       make(chan *pendingBatch, queueCap),
	}
	m.queueDepth.Store(func() int { return len(b.jobs) })
	m.startBytes.Store(starts.Bytes)
	for i := 0; i < workers; i++ {
		b.workers.Add(1)
		go b.worker()
	}
	return b
}

// join registers a query on the batch identified by key, creating the
// batch (and its window collector) if none is pending, and returns the
// member whose done channel will deliver the result. pair carries the
// query for kindFlow ((source, sink)) and kindCommunity ((source,
// source)); for kindImpact the query is sources — the canonical
// (deduplicated, sorted) source set — keyed by sourcesKey, and pair is
// ignored.
func (b *batcher) join(ctx context.Context, key batchKey, model *core.ICM, conds []core.FlowCondition, pair mh.FlowPair, sources []graph.NodeID, sourcesKey, cacheKey string) (*member, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.draining {
		return nil, ErrDraining
	}
	pb, ok := b.pending[key]
	if !ok {
		pb = &pendingBatch{
			key:       key,
			model:     model,
			conds:     conds,
			laneIndex: make(map[mh.FlowPair]int),
			setIndex:  make(map[string]int),
			full:      make(chan struct{}),
		}
		b.pending[key] = pb
		b.collectors.Add(1)
		go b.collect(pb)
	}
	var lane int
	if key.kind == kindImpact {
		if lane, ok = pb.setIndex[sourcesKey]; !ok {
			lane = len(pb.sets)
			pb.setIndex[sourcesKey] = lane
			pb.sets = append(pb.sets, sources)
			pb.lanes += len(sources)
		}
	} else {
		if lane, ok = pb.laneIndex[pair]; !ok {
			lane = len(pb.pairs)
			pb.laneIndex[pair] = lane
			pb.pairs = append(pb.pairs, pair)
			pb.lanes++
		}
	}
	m := &member{lane: lane, ctx: ctx, cacheKey: cacheKey, done: make(chan flowResult, 1)}
	pb.members = append(pb.members, m)
	if pb.lanes >= b.laneBudget {
		b.flushLocked(pb)
	}
	return m, nil
}

// collect is the per-batch window goroutine: it flushes the batch when
// the window expires, unless a lane-full (or drain) flush got there
// first.
func (b *batcher) collect(pb *pendingBatch) {
	defer b.collectors.Done()
	timer := b.clock.After(b.window)
	select {
	case <-timer:
		b.mu.Lock()
		if !pb.flushed {
			b.flushLocked(pb)
		}
		b.mu.Unlock()
	case <-pb.full:
	}
}

// flushLocked (b.mu held) retires the batch from the pending map and
// hands it to the worker pool; if the queue is saturated every member
// is refused with ErrOverloaded rather than blocking the caller.
func (b *batcher) flushLocked(pb *pendingBatch) {
	pb.flushed = true
	delete(b.pending, pb.key)
	close(pb.full)
	select {
	case b.jobs <- pb:
	default:
		b.metrics.Rejected.Add(int64(len(pb.members)))
		for _, m := range pb.members {
			m.done <- flowResult{Err: ErrOverloaded}
		}
	}
}

func (b *batcher) worker() {
	defer b.workers.Done()
	for pb := range b.jobs {
		b.execute(pb)
	}
}

// execute runs one flushed batch: a chain from the batch's burned-in
// start (see chain), one batched estimator call over its thinned samples
// (every query answered on every sample), cooperative abort once every
// member has cancelled, cache fill, then per-member delivery.
func (b *batcher) execute(pb *pendingBatch) {
	b.metrics.Batches.Add(1)
	b.metrics.BatchedLanes.Add(int64(pb.lanes))
	b.metrics.BatchedRequests.Add(int64(len(pb.members)))

	// The chain keeps running while at least one member still wants the
	// answer; when the last one cancels, the Interrupt hook stops the
	// chain between thinned samples. The hook consumes no randomness, so
	// surviving members' estimates are unaffected by co-batched
	// cancellations.
	live := new(atomic.Int64)
	live.Store(int64(len(pb.members)))
	stops := make([]func() bool, len(pb.members))
	for i, m := range pb.members {
		stops[i] = context.AfterFunc(m.ctx, func() { live.Add(-1) })
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()

	opts := mh.Options{
		BurnIn:    pb.key.burnIn,
		Thin:      pb.key.thin,
		Samples:   pb.key.samples,
		Interrupt: func() bool { return live.Load() <= 0 },
	}
	s, err := b.chain(pb, opts)
	if err != nil {
		b.deliverError(pb, err)
		return
	}
	opts.BurnIn = 0

	// entries holds each lane's answer in the compact form the cache
	// keeps, converted once per lane however many members share it.
	var probs []float64
	var comms [][]float64
	var hists [][]float64
	var entries []any
	switch pb.key.kind {
	case kindFlow:
		probs, err = mh.FlowProbBatchOn(s, pb.pairs, opts)
		for _, p := range probs {
			entries = append(entries, p)
		}
	case kindCommunity:
		sources := make([]graph.NodeID, len(pb.pairs))
		for i, p := range pb.pairs {
			sources[i] = p.Source
		}
		comms, err = mh.CommunityFlowProbsBatchOn(s, sources, opts)
		for _, c := range comms {
			entries = append(entries, newCommunityLaw(c))
		}
	case kindImpact:
		var impacts [][]int
		impacts, err = mh.ImpactDistributionBatchOn(s, pb.sets, opts)
		for i, samples := range impacts {
			// Sets arrive deduplicated, so the largest possible impact
			// is NumNodes - len(set).
			hists = append(hists, impactHist(samples, pb.model.NumNodes()-len(pb.sets[i])+1))
			entries = append(entries, newSizeLaw(hists[i]))
		}
	}
	if err != nil {
		b.deliverError(pb, err)
		return
	}
	acc := s.PostBurnInAcceptanceRate()
	b.metrics.setAcceptance(acc)

	res := flowResult{BatchSize: len(pb.members), Lanes: pb.lanes, Acceptance: acc}
	for _, m := range pb.members {
		r := res
		switch pb.key.kind {
		case kindFlow:
			r.Prob = probs[m.lane]
		case kindCommunity:
			r.Community = comms[m.lane]
		case kindImpact:
			r.Impact = hists[m.lane]
		}
		b.cache.Add(m.cacheKey, entries[m.lane])
		m.done <- r
	}
}

// chain returns the batch's chain, burned in. On a start hit it is a
// clone of the kept start; on a miss it is a fresh sampler seeded from
// the batch key and burned in here, and a compact copy of it is kept.
// Either way it is bit for bit the chain NewSampler and a full burn-in
// leave. A miss whose members all cancel during burn-in keeps nothing.
// Two batches that miss on one cold key at once both build the start;
// the second Add replaces the first with an equal copy.
func (b *batcher) chain(pb *pendingBatch, opts mh.Options) (*mh.Sampler, error) {
	key := pb.key.startKey()
	if v, ok := b.starts.Get(key); ok {
		b.metrics.StartHits.Add(1)
		return v.(*mh.Start).Clone(), nil
	}
	b.metrics.StartMisses.Add(1)
	s, err := mh.NewSampler(pb.model, pb.conds, rng.New(pb.key.seed))
	if err != nil {
		return nil, err
	}
	if err := s.BurnIn(context.Background(), opts); err != nil {
		return nil, err
	}
	st := s.Keep()
	b.starts.AddSized(key, st, st.Bytes())
	return s, nil
}

// impactHist folds per-sample impact counts into a normalized histogram
// over 0..length-1 new activations.
func impactHist(samples []int, length int) []float64 {
	hist := make([]float64, length)
	for _, imp := range samples {
		if imp < 0 || imp >= length {
			//flowlint:invariant the estimator counts activations over a deduplicated source set, so 0 <= impact <= n - |set| by construction
			panic("serve: impact sample out of range")
		}
		hist[imp]++
	}
	for i := range hist {
		hist[i] /= float64(len(samples))
	}
	return hist
}

// deliverError fans a batch-level failure out to every member. An
// all-members-cancelled interrupt is the expected outcome of client
// timeouts, not a server fault, so it doesn't count toward Errors.
func (b *batcher) deliverError(pb *pendingBatch, err error) {
	if !errors.Is(err, mh.ErrInterrupted) {
		b.metrics.Errors.Add(1)
	}
	for _, m := range pb.members {
		m.done <- flowResult{Err: err}
	}
}

// drain stops admission, flushes every pending batch, and blocks until
// the workers finish the backlog. Idempotent; later calls return once
// the first drain completes.
func (b *batcher) drain() {
	b.drainOnce.Do(func() {
		b.mu.Lock()
		b.draining = true
		for _, pb := range b.pending {
			b.flushLocked(pb)
		}
		b.mu.Unlock()
		b.collectors.Wait()
		close(b.jobs)
	})
	b.workers.Wait()
}
