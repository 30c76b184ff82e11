package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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

// queryKind separates end-to-end flow queries, community queries,
// impact (cascade-size) queries and influence-maximization queries. The
// first three use different estimators and cannot share a batch;
// /maximize never joins one.
type queryKind int8

const (
	kindFlow queryKind = iota
	kindCommunity
	kindImpact
	kindMaximize
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

// flowResult is one answer in the one form the cache keeps it, whether
// it came from the cache or not: a float64 (kindFlow: Pr[source ~> sink
// | conds]), a communityLaw (kindCommunity), a sizeLaw (sampled
// kindImpact), an impactAnalytic (analytic kindImpact) or a
// maximizeAnswer (kindMaximize). A batch delivers one to each member,
// with its stats; every handler renders hits and misses from it.
type flowResult struct {
	Answer any
	Cached bool
	batchStats
	Err error
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
// is one distinct query of the batch, found by its cache key (laneOf),
// which within one batch key names exactly one query: a flow's (source,
// sink), a community's source or an impact's source set. Two identical
// queries therefore share a lane, so a budget's worth of identical
// requests still fits one batch with one lane occupied. Flow and
// community queries occupy one lane of the budget each; impact queries
// one per distinct source of their canonical source set, and lanes
// tracks the running total either way. stop cancels the window timer.
type pendingBatch struct {
	key     batchKey
	queries []*query
	laneOf  map[string]int
	lanes   int
	members []*member
	flushed bool
	stop    func() bool
}

// batcher coalesces concurrent same-chain queries into batches of up to
// laneBudget distinct queries. A batch flushes when its lane set fills
// the budget or when the batching window expires, whichever comes
// first; flushed batches run on a bounded worker pool, each as one chain
// whose thinned samples answer every query with its own traversal. A
// chain begins from the burned-in start its batch key names (see
// startKey): starts keeps a compact copy of each, so only the first
// batch on a start pays for NewSampler and burn-in. The window is a
// timer from the injected Clock, armed when a batch opens and stopped
// when it flushes, so tests drive flushes deterministically. draining
// is set under mu, so a join either sees it or is flushed by the drain.
type batcher struct {
	window     time.Duration
	laneBudget int
	clock      Clock
	metrics    *Metrics
	cache      *lruCache
	starts     *lruCache

	mu       sync.Mutex
	pending  map[batchKey]*pendingBatch
	jobs     chan *pendingBatch
	draining atomic.Bool

	workers sync.WaitGroup
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

// join registers q on its batch, creating the batch and arming its
// window if none is pending, and returns the member whose done channel
// will deliver the result, cached under cacheKey. A server that is
// draining refuses the join.
func (b *batcher) join(ctx context.Context, q *query, cacheKey string) (*member, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.draining.Load() {
		b.metrics.Rejected.Add(1)
		return nil, ErrDraining
	}
	key := q.batchKey()
	pb, ok := b.pending[key]
	if !ok {
		pb = &pendingBatch{key: key, laneOf: make(map[string]int)}
		b.pending[key] = pb
		pb.stop = b.clock.AfterFunc(b.window, func() {
			b.mu.Lock()
			defer b.mu.Unlock()
			if !pb.flushed {
				b.flushLocked(pb)
			}
		})
	}
	lane, ok := pb.laneOf[cacheKey]
	if !ok {
		lane = len(pb.queries)
		pb.laneOf[cacheKey] = lane
		pb.queries = append(pb.queries, q)
		if q.kind == kindImpact {
			pb.lanes += len(q.nodes)
		} else {
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

// flushLocked (b.mu held) retires the batch from the pending map, stops
// its window timer and hands it to the worker pool; if the queue is
// saturated every member is refused with ErrOverloaded rather than
// blocking the caller. A timer that fires anyway finds flushed set.
func (b *batcher) flushLocked(pb *pendingBatch) {
	pb.flushed = true
	delete(b.pending, pb.key)
	pb.stop()
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
// member has cancelled, cache fill, then per-member delivery. A batch
// whose members have all cancelled by the time a worker takes it runs
// nothing: no sampler, no burn-in, no kept start.
func (b *batcher) execute(pb *pendingBatch) {
	if !anyWaiting(pb.members) {
		b.deliverError(pb, fmt.Errorf("%w: every member cancelled before the batch ran", mh.ErrInterrupted))
		return
	}
	b.metrics.Batches.Add(1)
	b.metrics.BatchedLanes.Add(int64(pb.lanes))
	b.metrics.BatchedRequests.Add(int64(len(pb.members)))

	// The chain keeps running while at least one member still wants the
	// answer; once none does, the Interrupt hook stops the chain between
	// thinned samples. The hook consumes no randomness, so surviving
	// members' estimates are unaffected by co-batched cancellations.
	opts := mh.Options{
		BurnIn:    pb.key.burnIn,
		Thin:      pb.key.thin,
		Samples:   pb.key.samples,
		Interrupt: func() bool { return !anyWaiting(pb.members) },
	}
	s, err := b.chain(pb, opts)
	if err != nil {
		b.deliverError(pb, err)
		return
	}
	opts.BurnIn = 0

	// answers holds each lane's answer in the compact form the cache
	// keeps, converted once per lane however many members share it.
	var answers []any
	switch pb.key.kind {
	case kindFlow:
		pairs := make([]mh.FlowPair, len(pb.queries))
		for i, q := range pb.queries {
			pairs[i] = mh.FlowPair{Source: q.source, Sink: q.sink}
		}
		var probs []float64
		probs, err = mh.FlowProbBatchOn(s, pairs, opts)
		for _, p := range probs {
			answers = append(answers, p)
		}
	case kindCommunity:
		sources := make([]graph.NodeID, len(pb.queries))
		for i, q := range pb.queries {
			sources[i] = q.source
		}
		var comms [][]float64
		comms, err = mh.CommunityFlowProbsBatchOn(s, sources, opts)
		for _, c := range comms {
			answers = append(answers, newCommunityLaw(c))
		}
	case kindImpact:
		sets := make([][]graph.NodeID, len(pb.queries))
		for i, q := range pb.queries {
			sets[i] = q.nodes
		}
		var impacts [][]int
		impacts, err = mh.ImpactDistributionBatchOn(s, sets, opts)
		for i, samples := range impacts {
			// Sets arrive deduplicated, so the largest possible impact
			// is NumNodes - len(set).
			answers = append(answers, sampledLaw(samples, pb.queries[0].model.ICM.NumNodes()-len(sets[i])+1))
		}
	}
	if err != nil {
		b.deliverError(pb, err)
		return
	}
	acc := s.PostBurnInAcceptanceRate()
	b.metrics.setAcceptance(acc)

	res := flowResult{batchStats: batchStats{BatchSize: len(pb.members), Lanes: pb.lanes, Acceptance: acc}}
	for _, m := range pb.members {
		res.Answer = answers[m.lane]
		keepAnswer(b.cache, m.cacheKey, res.Answer)
		m.done <- res
	}
}

// anyWaiting reports whether some member's context is still live. It
// stops at the first live member, so a poll costs one ctx.Err() while
// that member waits. execute checks it before running a batch, and the
// chain polls it between thinned samples as its Interrupt hook.
func anyWaiting(members []*member) bool {
	for _, m := range members {
		if m.ctx.Err() == nil {
			return true
		}
	}
	return false
}

// chain returns the batch's chain, burned in, on the model and
// conditions its queries share. On a start hit it is a clone of the
// kept start; on a miss it is a fresh sampler seeded from the batch key
// and burned in here, and a compact copy of it is kept. Either way it is
// bit for bit the chain NewSampler and a full burn-in leave. A miss
// whose members all cancel during burn-in keeps nothing. Two batches
// that miss on one cold key at once both build the start; the second
// Add replaces the first with an equal copy.
func (b *batcher) chain(pb *pendingBatch, opts mh.Options) (*mh.Sampler, error) {
	key := pb.key.startKey()
	if v, ok := b.starts.Get([]byte(key)); ok {
		b.metrics.StartHits.Add(1)
		return v.(*mh.Start).Clone(), nil
	}
	b.metrics.StartMisses.Add(1)
	q := pb.queries[0]
	s, err := mh.NewSampler(q.model.ICM, q.conds, rng.New(pb.key.seed))
	if err != nil {
		return nil, err
	}
	if err := s.BurnIn(opts); err != nil {
		return nil, err
	}
	st := s.Keep()
	b.starts.AddSized(key, st, st.Bytes())
	return s, nil
}

// sampledLaw folds a lane's per-sample impact counts into its size law:
// the normalized histogram over 0..length-1 new activations, kept up to
// the largest impact sampled, past which every entry is zero.
func sampledLaw(samples []int, length int) sizeLaw {
	top := 0
	for _, imp := range samples {
		if imp < 0 || imp >= length {
			//flowlint:invariant the estimator counts activations over a deduplicated source set, so 0 <= impact <= n - |set| by construction
			panic("serve: impact sample out of range")
		}
		top = max(top, imp)
	}
	support := make([]float64, top+1)
	for _, imp := range samples {
		support[imp]++
	}
	for i := range support {
		support[i] /= float64(len(samples))
	}
	return sizeLaw{support: support, length: length}
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
// the workers finish the backlog. Every send on jobs happens under mu,
// so closing it there ends the workers once the queue empties, and a
// window timer that fires later finds its batch flushed. Idempotent;
// later calls return once the workers have finished.
func (b *batcher) drain() {
	b.mu.Lock()
	if !b.draining.Load() {
		b.draining.Store(true)
		for _, pb := range b.pending {
			b.flushLocked(pb)
		}
		close(b.jobs)
	}
	b.mu.Unlock()
	b.workers.Wait()
}
