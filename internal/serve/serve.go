// Package serve is the flowserve inference service: an HTTP layer that
// answers flow-probability (/flow), community (/community), impact
// (cascade-size, /impact) and influence-maximization (/maximize) queries
// against trained ICMs. Concurrent same-chain /flow, /community and
// sampled /impact requests coalesce into batched Metropolis-Hastings
// estimators (mh.FlowProbBatch and its siblings) of up to LaneBudget
// queries (default 512): the batch shares one chain's burn-in and
// thinning, and each thinned sample answers every query with its own
// early-exit traversal. Requests that share a (model, conditions, chain
// schedule, seed) tuple arriving within the batching window ride one
// chain; an LRU cache short-circuits repeats. A batch's chain begins from
// a burned-in start kept per (model, conditions, BurnIn, seed), so
// batches of every kind and sample count under one evidence set pay for
// construction and burn-in once. /maximize runs its own chain
// synchronously (see handleMaximize).
//
// /impact additionally fronts the sampled path with the analytic
// sizedist engine: when the cascade-size law is exactly computable
// (forests, DAGs within the frontier width, cyclic graphs within the
// loop-conditioning budget) the answer is served synchronously with no
// chain at all, and mode=auto falls back to the batched MH estimator
// only when the analytic engine cannot be exact.
//
// Every endpoint takes one request path (serveQuery): parseQuery reads
// its parameters in one order into one query type, keeping a node list
// unread until a cache miss needs it (see lookup), the answer comes from
// the cache or from its computation in the one form the cache keeps
// (flowResult), and the handler renders hits and misses alike from it.
//
// Determinism contract: batching, caching, kept chain starts and
// co-batched cancellation never change a query's answer. The chain's
// randomness is independent of the lane set, so a request's estimate is
// a pure function of (model digest, query, conditions, BurnIn, Thin,
// Samples, seed) — a single-request batch is bit-identical to scalar
// mh.FlowProb.
package serve

import (
	"cmp"
	"context"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/influence"
	"infoflow/internal/mh"
	"infoflow/internal/sizedist"
)

// Model is one servable ICM. Digest is computed by NewServer when left
// empty; a digest given may not hold '|'.
type Model struct {
	Name   string
	ICM    *core.ICM
	Digest string
}

// Config parameterises a Server. Zero values get sensible defaults from
// NewServer; only Models is required.
type Config struct {
	// Models to serve, addressed by the ?model= query parameter. With a
	// single model the parameter may be omitted.
	Models []Model
	// Window is how long a freshly opened batch waits for co-batchable
	// requests before flushing (default 5ms). A batch whose LaneBudget
	// lanes fill flushes immediately.
	Window time.Duration
	// LaneBudget is how many distinct queries one batch may coalesce
	// before it flushes (default 512), capped at mh.MaxLanes. Each query
	// costs its own traversal per thinned sample, so the cap bounds a
	// batch's tally memory.
	LaneBudget int
	// Workers bounds the batch chains that run at once (default 2).
	Workers int
	// QueueCap bounds flushed batches awaiting a worker (default 64);
	// past it, requests are refused with 503 rather than queued.
	QueueCap int
	// CacheSize is the LRU result-cache capacity in entries (default
	// 1024; negative disables caching), which resultBudget bounds in
	// bytes as well. It also caps the kept burned-in chain starts, which
	// startBudget bounds in bytes; negative keeps none.
	CacheSize int
	// DefaultSamples / MaxSamples bound the ?samples= parameter of the
	// batched endpoints (defaults 2000 / 50000). /maximize defaults to
	// influence.DefaultSketchOptions instead, bounded by maxSketchSets:
	// RR roots average over states, so far fewer chain samples are
	// needed than a point estimate wants.
	DefaultSamples int
	MaxSamples     int
	// DefaultSeed is the chain seed when ?seed= is absent (default 1).
	DefaultSeed uint64
	// DefaultTimeout is the per-request deadline when ?timeout= is
	// absent (default 30s).
	DefaultTimeout time.Duration
	// Clock drives the batching window; nil means the wall clock.
	Clock Clock
}

func (c *Config) applyDefaults() {
	if c.Window <= 0 {
		c.Window = 5 * time.Millisecond
	}
	if c.LaneBudget <= 0 {
		c.LaneBudget = 512
	}
	if c.LaneBudget > mh.MaxLanes {
		c.LaneBudget = mh.MaxLanes
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.DefaultSamples <= 0 {
		c.DefaultSamples = 2000
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 50000
	}
	if c.DefaultSeed == 0 {
		c.DefaultSeed = 1
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = RealClock()
	}
}

// startBudget bounds the bytes the kept burned-in chain starts hold
// (mh.Start.Bytes). A start at §IV-C scale (14,000 edges) holds about
// 115 KB, almost all of it the proposal tree's partial sums, so the
// budget keeps about 140 starts.
const startBudget = 16 << 20

// resultBudget bounds the bytes the result cache holds, each answer
// sized by what it keeps (see keepAnswer). At §IV-C scale a default
// whole-graph /maximize ranking holds about 3,680 seeds (29 KB), so the
// budget holds about 1,100 of them, more than CacheSize's default
// entries; a larger pool ranks up to 6,000 seeds (48 KB). A community
// ranking holds about 520 seeds plus its 2.5 KB key.
const resultBudget = 32 << 20

// maxSketchSets bounds the /maximize pool size: ?samples= times ?roots=
// may not exceed it. A pool's cover holds 4 bytes per (node, set)
// membership, and never more than one bit per (node, set) pair plus a
// fixed header per node.
const maxSketchSets = 65536

// Server routes flow queries into the batcher. Build with NewServer,
// mount via Handler, stop with Drain.
type Server struct {
	cfg     Config
	models  map[string]Model
	only    string // sole model name when len(models) == 1
	metrics *Metrics
	cache   *lruCache
	batcher *batcher
	mux     *http.ServeMux
}

// NewServer validates cfg, fills defaults, computes missing model
// digests, and starts the worker pool.
func NewServer(cfg Config) (*Server, error) {
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("serve: no models configured")
	}
	cfg.applyDefaults()
	s := &Server{cfg: cfg, models: make(map[string]Model, len(cfg.Models))}
	for i := range cfg.Models {
		m := cfg.Models[i]
		if m.Name == "" || m.ICM == nil {
			return nil, fmt.Errorf("serve: model %d needs a name and an ICM", i)
		}
		if _, dup := s.models[m.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate model name %q", m.Name)
		}
		if m.Digest == "" {
			m.Digest = ModelDigest(m.ICM)
		}
		if strings.IndexByte(m.Digest, '|') >= 0 {
			return nil, fmt.Errorf("serve: model %q digest %q holds '|', which separates cache key fields", m.Name, m.Digest)
		}
		s.models[m.Name] = m
	}
	if len(cfg.Models) == 1 {
		s.only = cfg.Models[0].Name
	}
	s.metrics = &Metrics{}
	s.metrics.laneBudget.Store(int64(cfg.LaneBudget))
	s.cache = newLRUCache(cfg.CacheSize, resultBudget)
	starts := newLRUCache(cfg.CacheSize, startBudget)
	s.batcher = newBatcher(cfg.Window, cfg.Workers, cfg.QueueCap, cfg.LaneBudget, cfg.Clock, s.metrics, s.cache, starts)
	publishExpvar(s.metrics)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /flow", s.handleFlow)
	mux.HandleFunc("GET /community", s.handleCommunity)
	mux.HandleFunc("GET /impact", s.handleImpact)
	mux.HandleFunc("GET /maximize", s.handleMaximize)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's live counter set.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Drain stops admitting queries and blocks until every in-flight and
// pending batch has been executed and delivered. From the call on,
// healthz reports draining and every request that would compute — a
// batch join, a /maximize selection, an analytic /impact law — gets 503;
// cached answers are still served, and every refusal counts toward
// Metrics.Rejected. Call once, on shutdown.
func (s *Server) Drain() {
	s.batcher.drain()
}

// refuseDraining returns the 503 a request that would compute gets once
// Drain has begun, and nil before. The analytic /impact front and
// /maximize, which compute in the handler, call it before computing, as
// the batcher refuses joins, and count the refusal as it does.
func (s *Server) refuseDraining() *httpError {
	if !s.batcher.draining.Load() {
		return nil
	}
	s.metrics.Rejected.Add(1)
	return &httpError{status: http.StatusServiceUnavailable, msg: ErrDraining.Error()}
}

// query carries one parsed, validated request of any kind. A kind reads
// only its own fields and leaves the others zero.
type query struct {
	model    Model
	kind     queryKind
	source   graph.NodeID   // kindFlow, kindCommunity
	sink     graph.NodeID   // kindFlow
	nodes    []graph.NodeID // kindImpact: the source set; kindMaximize: the community, nil for every node; built by readList
	nodesKey string         // the node list: as it arrived while unread, then in canonical (sorted distinct) form
	unread   bool           // nodesKey holds a list readList has yet to read
	mode     string         // kindImpact: "auto" | "analytic" | "sampled"
	top      int            // kindCommunity: how many nodes to list
	k        int            // kindMaximize: the seed budget
	roots    int            // kindMaximize: RR roots per thinned sample
	conds    []core.FlowCondition
	condKey  string
	opts     mh.Options
	seed     uint64
	timeout  time.Duration
}

// httpError is a client-side parse/validation failure with its status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// parseQuery extracts and validates a request of the given kind from
// one pass over its raw query (readParams). Every endpoint reads its
// parameters in one order, so of several bad parameters the first in it
// decides the error: model; the endpoint's own query (source and sink;
// source; sources and mode; or k and community); cond; samples, and
// roots for /maximize; seed; timeout; then /community's top and
// /impact's refusal to condition an analytic law.
//
// A node list (sources=, community=) is kept unread, as it arrived, in
// nodesKey: a cache hit answers without reading it, and a miss reads
// it (see lookup). When a parameter after the list fails, the list is
// read first, so a bad list still decides the error.
func (s *Server) parseQuery(r *http.Request, kind queryKind) (*query, *httpError) {
	q := &query{kind: kind}
	if herr := s.parseParams(q, readParams(r.URL.RawQuery)); herr != nil {
		if lerr := q.readList(); lerr != nil {
			return nil, lerr
		}
		return nil, herr
	}
	return q, nil
}

// parseParams reads and checks q's parameters from vals in parse order
// (see parseQuery), keeping a node list unread.
func (s *Server) parseParams(q *query, vals params) *httpError {
	kind := q.kind
	name := vals[pModel]
	if name == "" {
		if s.only == "" {
			return badRequest("model parameter required (serving %d models)", len(s.models))
		}
		name = s.only
	}
	m, ok := s.models[name]
	if !ok {
		return &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown model %q", name)}
	}
	q.model = m
	n := m.ICM.NumNodes()

	node := func(p param) (graph.NodeID, *httpError) {
		raw, name := vals[p], paramNames[p]
		if raw == "" {
			return 0, badRequest("%s parameter required", name)
		}
		v, err := strconv.Atoi(raw)
		if err != nil {
			return 0, badRequest("%s: %v", name, err)
		}
		if v < 0 || v >= n {
			return 0, badRequest("%s %d out of range [0, %d)", name, v, n)
		}
		return graph.NodeID(v), nil
	}
	var herr *httpError
	var err error
	switch kind {
	case kindFlow, kindCommunity:
		if q.source, herr = node(pSource); herr != nil {
			return herr
		}
		if kind == kindFlow {
			if q.sink, herr = node(pSink); herr != nil {
				return herr
			}
		}
	case kindImpact:
		q.nodesKey, q.unread = vals[pSources], true
		switch mode := vals[pMode]; mode {
		case "", "auto":
			q.mode = "auto"
		case "analytic", "sampled":
			q.mode = mode
		default:
			return badRequest("mode %q: want auto, analytic, or sampled", mode)
		}
	case kindMaximize:
		raw := vals[pK]
		if raw == "" {
			return badRequest("k parameter required")
		}
		if q.k, err = strconv.Atoi(raw); err != nil {
			return badRequest("k: %v", err)
		}
		if q.k <= 0 || q.k > n {
			return badRequest("k %d out of range [1, %d]", q.k, n)
		}
		if raw := vals[pCommunity]; raw != "" {
			q.nodesKey, q.unread = raw, true
		}
	}

	if q.conds, q.condKey, err = ParseConds(vals[pCond], n); err != nil {
		return err.(*httpError)
	}

	// The chain schedule is the one a library caller would use for this
	// model, so a single-request batch is bit-identical to scalar
	// mh.FlowProb, and a /maximize selection to influence.Maximize with
	// the same schedule and seed.
	q.opts = mh.DefaultOptions(m.ICM.NumEdges())
	q.opts.Samples = s.cfg.DefaultSamples
	if kind == kindMaximize {
		sketch := influence.DefaultSketchOptions(m.ICM.NumEdges())
		q.opts, q.roots = sketch.Chain, sketch.RootsPerSample
	}
	if raw := vals[pSamples]; raw != "" {
		if q.opts.Samples, err = strconv.Atoi(raw); err != nil {
			return badRequest("samples: %v", err)
		}
		switch samples := q.opts.Samples; {
		case kind == kindMaximize && samples <= 0:
			return badRequest("samples %d must be positive", samples)
		case kind != kindMaximize && (samples <= 0 || samples > s.cfg.MaxSamples):
			return badRequest("samples %d out of range [1, %d]", samples, s.cfg.MaxSamples)
		}
	}
	if kind == kindMaximize {
		if raw := vals[pRoots]; raw != "" {
			if q.roots, err = strconv.Atoi(raw); err != nil {
				return badRequest("roots: %v", err)
			}
			if q.roots <= 0 || q.roots%mh.LaneWidth != 0 {
				return badRequest("roots %d must be a positive multiple of %d", q.roots, mh.LaneWidth)
			}
		}
		if sets := q.opts.Samples * q.roots; sets > maxSketchSets || sets/q.roots != q.opts.Samples {
			return badRequest("samples %d x roots %d exceeds the sketch budget of %d RR sets",
				q.opts.Samples, q.roots, maxSketchSets)
		}
	}
	q.seed = s.cfg.DefaultSeed
	if raw := vals[pSeed]; raw != "" {
		if q.seed, err = strconv.ParseUint(raw, 10, 64); err != nil {
			return badRequest("seed: %v", err)
		}
	}
	q.timeout = s.cfg.DefaultTimeout
	if raw := vals[pTimeout]; raw != "" {
		if q.timeout, err = time.ParseDuration(raw); err != nil {
			return badRequest("timeout: %v", err)
		}
		if q.timeout <= 0 {
			return badRequest("timeout must be positive")
		}
	}

	if kind == kindCommunity {
		q.top = 10
		if raw := vals[pTop]; raw != "" {
			if q.top, err = strconv.Atoi(raw); err != nil || q.top <= 0 {
				return badRequest("top must be a positive integer")
			}
		}
	}
	if q.mode == "analytic" && len(q.conds) > 0 {
		return badRequest("mode=analytic does not support cond: the analytic engine computes the unconditional law")
	}
	return nil
}

// readList reads the node list parseQuery kept unread, if any: it
// range-checks the list on q's model and puts it in canonical form
// (parseNodeSet), its ids in nodes and its key in nodesKey. Either list
// must name at least one node.
func (q *query) readList() *httpError {
	if !q.unread {
		return nil
	}
	q.unread = false
	param, empty := "sources", "sources parameter required"
	if q.kind == kindMaximize {
		param, empty = "community", "community parameter must name at least one node"
	}
	nodes, key, herr := parseNodeSet(q.nodesKey, param, q.model.ICM.NumNodes())
	if herr != nil {
		return herr
	}
	if len(nodes) == 0 {
		return &httpError{status: http.StatusBadRequest, msg: empty}
	}
	q.nodes, q.nodesKey = nodes, key
	return nil
}

func (q *query) batchKey() batchKey {
	return batchKey{
		digest:  q.model.Digest,
		kind:    q.kind,
		conds:   q.condKey,
		burnIn:  q.opts.BurnIn,
		thin:    q.opts.Thin,
		samples: q.opts.Samples,
		seed:    q.seed,
	}
}

// appendCacheKey appends the key naming q's cached answer, in one
// layout for every endpoint: the model digest, the kind, the query's
// nodes, its conditions and every chain input the answer is a function
// of. A kind leaves the fields it does not read at zero. It leaves out
// what only shapes the rendering: /community's top, and /maximize's k,
// since every budget's selection is a prefix of the pool's one greedy
// ranking. The fields are '|'-separated, the numbers in decimal.
//
// The node list enters as nodesKey holds it, read or not. No other
// field can hold a '|' (NewServer refuses a digest with one), and the
// list lies between the key's first four fields and its last six, so a
// key names one query even when an unread list holds a '|'.
func (q *query) appendCacheKey(b []byte) []byte {
	b = append(b, q.model.Digest...)
	for _, v := range [...]int64{int64(q.kind), int64(q.source), int64(q.sink)} {
		b = strconv.AppendInt(append(b, '|'), v, 10)
	}
	b = append(append(b, '|'), q.nodesKey...)
	b = append(append(b, '|'), q.condKey...)
	for _, v := range [...]int64{int64(q.opts.BurnIn), int64(q.opts.Thin), int64(q.opts.Samples), int64(q.roots)} {
		b = strconv.AppendInt(append(b, '|'), v, 10)
	}
	return strconv.AppendUint(append(b, '|'), q.seed, 10)
}

// appendAnalyticKey appends the key of q's analytic /impact law. The
// exact law depends only on the model and the source set — no chain
// schedule, seed, or sample count — so analytic entries are shared
// across all of them. It is the cache key with every chain field zero,
// which no sampled key is: a parsed query draws at least one sample.
func (q *query) appendAnalyticKey(b []byte) []byte {
	law := query{model: q.model, kind: kindImpact, nodesKey: q.nodesKey}
	return law.appendCacheKey(b)
}

// lookup reads the cache under the key appendKey appends for q. The key
// is appended into a pooled buffer and looked up without a copy; it
// becomes a string only on a miss, to cache the computed answer under.
//
// An unread node list enters the key as it arrived, so a hit answers
// without reading it. That is safe because a key enters the cache only
// once a miss has read, range-checked and canonicalized its list on a
// model with the same digest: a list that hits is one such list. A miss
// reads the list, refusing a bad one, and looks again if canonicalizing
// changed the key. lookup counts neither hit nor miss.
func (s *Server) lookup(q *query, appendKey func(*query, []byte) []byte) (v any, cached bool, key string, herr *httpError) {
	buf := bufs.Get().(*pooledBuf)
	b := appendKey(q, buf.b[:0])
	v, cached = s.cache.Get(b)
	if !cached && q.unread {
		raw := q.nodesKey
		if herr = q.readList(); herr == nil && q.nodesKey != raw {
			b = appendKey(q, b[:0])
			v, cached = s.cache.Get(b)
		}
	}
	if !cached && herr == nil {
		key = string(b)
	}
	putBuf(buf, b)
	return v, cached, key, herr
}

// serveQuery is every endpoint's request path: it parses a request of
// the given kind and answers it — /impact from the analytic engine when
// its verdict applies (see analyticImpact), anything else from the cache
// or its computation (see answer). On failure it writes the error and
// reports false; on success the handler renders the answer.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, kind queryKind) (*query, flowResult, bool) {
	q, herr := s.parseQuery(r, kind)
	var res flowResult
	if herr == nil && kind == kindImpact {
		res, herr = s.analyticImpact(q)
	}
	if herr == nil && res.Answer == nil {
		res, herr = s.answer(r, q)
	}
	if herr != nil {
		writeError(w, herr)
		return nil, flowResult{}, false
	}
	return q, res, true
}

// answer returns q's answer in the form the cache keeps: the cached one
// on a hit, else one computed under q's deadline — by q's batch, or for
// /maximize by building and ranking its pool in the handler.
func (s *Server) answer(r *http.Request, q *query) (flowResult, *httpError) {
	v, cached, key, herr := s.lookup(q, (*query).appendCacheKey)
	if herr != nil {
		return flowResult{}, herr
	}
	if cached {
		s.metrics.CacheHits.Add(1)
		return flowResult{Answer: v, Cached: true}, nil
	}
	s.metrics.CacheMisses.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), q.timeout)
	defer cancel()
	if q.kind == kindMaximize {
		return s.maximize(ctx, q, key)
	}
	return s.dispatch(ctx, q, key)
}

// keepAnswer caches an answer under key, sized by what the entry
// keeps: the key, and the answer's ranking, law support or community
// support (a /flow probability keeps 8 bytes).
func keepAnswer(c *lruCache, key string, v any) {
	size := len(key)
	switch a := v.(type) {
	case float64:
		size += 8
	case communityLaw:
		size += 4*len(a.nodes) + 8*len(a.probs)
	case sizeLaw:
		size += 8 * len(a.support)
	case impactAnalytic:
		size += 8 * len(a.law.support)
	case maximizeAnswer:
		size += a.ranking.Bytes()
	}
	c.AddSized(key, v, size)
}

// dispatch joins the query's batch and waits for its result or the
// request deadline; returned *httpError is ready to write.
func (s *Server) dispatch(ctx context.Context, q *query, key string) (flowResult, *httpError) {
	m, err := s.batcher.join(ctx, q, key)
	if err != nil {
		return flowResult{}, &httpError{status: http.StatusServiceUnavailable, msg: err.Error()}
	}
	select {
	case res := <-m.done:
		if res.Err != nil {
			return flowResult{}, s.mapError(ctx, res.Err)
		}
		return res, nil
	case <-ctx.Done():
		s.metrics.Timeouts.Add(1)
		return flowResult{}, &httpError{status: http.StatusGatewayTimeout,
			msg: fmt.Sprintf("deadline exceeded after %v", q.timeout)}
	}
}

// mapError maps a failed computation, batched or run in the handler,
// to its status; ctx is the request's.
func (s *Server) mapError(ctx context.Context, err error) *httpError {
	switch {
	case errors.Is(err, mh.ErrInterrupted) && ctx.Err() != nil:
		s.metrics.Timeouts.Add(1)
		return &httpError{status: http.StatusGatewayTimeout, msg: err.Error()}
	case errors.Is(err, ErrDraining), errors.Is(err, ErrOverloaded):
		return &httpError{status: http.StatusServiceUnavailable, msg: err.Error()}
	case errors.Is(err, mh.ErrUnsatisfiable):
		return &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	default:
		return &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
}

// batchStats describes the batch that computed an answer. A cache hit,
// an analytic /impact law and a /maximize selection ran no batch and
// leave it zero, so its fields drop out of their bodies.
type batchStats struct {
	BatchSize  int     `json:"batch_size,omitempty"`      // requests served by the batch
	Lanes      int     `json:"lanes,omitempty"`           // distinct queries (lanes) the batch carried
	Acceptance float64 `json:"acceptance_rate,omitempty"` // chain's post-burn-in acceptance rate
}

type flowResponse struct {
	Model   string  `json:"model"`
	Source  int     `json:"source"`
	Sink    int     `json:"sink"`
	Cond    string  `json:"cond,omitempty"`
	Prob    float64 `json:"prob"`
	Samples int     `json:"samples"`
	Seed    uint64  `json:"seed"`
	Cached  bool    `json:"cached"`
	batchStats
}

func (s *Server) handleFlow(w http.ResponseWriter, r *http.Request) {
	s.metrics.FlowRequests.Add(1)
	q, res, ok := s.serveQuery(w, r, kindFlow)
	if !ok {
		return
	}
	resp := flowResponse{
		Model: q.model.Name, Source: int(q.source), Sink: int(q.sink), Cond: q.condKey,
		Prob: res.Answer.(float64), Samples: q.opts.Samples, Seed: q.seed,
		Cached: res.Cached, batchStats: res.batchStats,
	}
	writeBody(w, http.StatusOK, resp.appendJSON)
}

type communityEntry struct {
	Node int     `json:"node"`
	Prob float64 `json:"prob"`
}

type communityResponse struct {
	Model   string           `json:"model"`
	Source  int              `json:"source"`
	Cond    string           `json:"cond,omitempty"`
	Samples int              `json:"samples"`
	Seed    uint64           `json:"seed"`
	Cached  bool             `json:"cached"`
	Top     []communityEntry `json:"top"`
	batchStats
}

// handleCommunity serves the community vector's ranking. The cache
// stores the whole community (its support) so ?top= never splits cache
// entries, and the ranking reads that support as it is.
func (s *Server) handleCommunity(w http.ResponseWriter, r *http.Request) {
	s.metrics.CommunityRequests.Add(1)
	q, res, ok := s.serveQuery(w, r, kindCommunity)
	if !ok {
		return
	}
	resp := communityResponse{
		Model: q.model.Name, Source: int(q.source), Cond: q.condKey, Samples: q.opts.Samples, Seed: q.seed,
		Cached: res.Cached, Top: res.Answer.(communityLaw).top(q.source, q.top),
		batchStats: res.batchStats,
	}
	writeBody(w, http.StatusOK, resp.appendJSON)
}

// communityLaw is a cached /community vector without its zeros: the
// nodes the source reached in some sample, ascending, their
// probabilities, and the vector's length. The vector holds a probability
// per node, 48 KB at §IV-C scale, but a source reaches a small share of
// the graph there.
type communityLaw struct {
	nodes []graph.NodeID
	probs []float64
	n     int
}

func newCommunityLaw(probs []float64) communityLaw {
	k := 0
	for _, p := range probs {
		if p > 0 {
			k++
		}
	}
	c := communityLaw{nodes: make([]graph.NodeID, 0, k), probs: make([]float64, 0, k), n: len(probs)}
	for v, p := range probs {
		if p > 0 {
			c.nodes = append(c.nodes, graph.NodeID(v))
			c.probs = append(c.probs, p)
		}
	}
	return c
}

// top ranks the law's support: every node but the source, most probable
// first, ties broken by node id, cut to the first top. It is the one
// community ranking. top is client input with no upper bound, so it
// sizes nothing beyond the support.
func (c communityLaw) top(source graph.NodeID, top int) []communityEntry {
	out := make([]communityEntry, 0, len(c.nodes))
	for i, v := range c.nodes {
		if v != source {
			out = append(out, communityEntry{Node: int(v), Prob: c.probs[i]})
		}
	}
	// Equal probabilities are equal k/Samples quotients from one chain,
	// so they tie exactly and fall to the node order.
	slices.SortFunc(out, func(a, b communityEntry) int {
		return cmp.Or(cmp.Compare(b.Prob, a.Prob), cmp.Compare(a.Node, b.Node))
	})
	return out[:min(top, len(out))]
}

// impactResponse is the /impact payload. Method labels the estimator
// that produced Dist — a sizedist.Method name for the analytic path,
// "mh-sampled" for the batched chain — and Exact reports whether Dist is
// the exact law (sampled and bounded-analytic answers are not).
type impactResponse struct {
	Model   string   `json:"model"`
	Sources nodeList `json:"sources"`
	Cond    string   `json:"cond,omitempty"`
	Mode    string   `json:"mode"`
	Method  string   `json:"method"`
	Exact   bool     `json:"exact"`
	Mean    float64  `json:"mean"`
	Dist    sizeLaw  `json:"dist"`
	Samples int      `json:"samples,omitempty"`
	Seed    uint64   `json:"seed,omitempty"`
	Cached  bool     `json:"cached"`
	batchStats
}

// impactAnalytic is the analytic engine's verdict on a source set: its
// law, with the method that derived it and whether the law is exact, or
// the error saying no analytic law applies. Laws are cached, inexact
// ones too, so auto-mode repeats on a loop-heavy model skip straight to
// sampling instead of re-deriving the condensation bound every request.
// An error is not cached.
type impactAnalytic struct {
	method string
	exact  bool
	law    sizeLaw
	err    error
}

// sizeLaw is a cached /impact distribution without its zero tail: the
// entries up to the last nonzero one, and the full length. A law spans
// every possible impact, NumNodes - |sources| + 1 entries, but a
// subcritical cascade reaches few nodes: on a 6000-node forest the kept
// prefix of a random set's law is 3 entries long at the median and 173
// at p99.
type sizeLaw struct {
	support []float64
	length  int
}

func newSizeLaw(dist []float64) sizeLaw {
	n := len(dist)
	for n > 0 && math.Float64bits(dist[n-1]) == 0 {
		n--
	}
	return sizeLaw{support: append(make([]float64, 0, n), dist[:n]...), length: len(dist)}
}

// mean is the law's expected impact. The zero tail adds nothing to it.
func (l sizeLaw) mean() float64 {
	mean := 0.0
	for k, p := range l.support {
		mean += float64(k) * p
	}
	return mean
}

// handleImpact serves the cascade-size distribution of a source set.
// mode=analytic demands the sizedist engine (422 when intractable, 400
// when conditioned — the analytic law is unconditional); mode=sampled
// demands the batched MH estimator; mode=auto (the default) serves the
// analytic answer when it is exact and falls back to sampling otherwise.
// The analytic path runs synchronously — no chain, no batch — and its
// cache entries ignore the chain schedule entirely.
func (s *Server) handleImpact(w http.ResponseWriter, r *http.Request) {
	s.metrics.ImpactRequests.Add(1)
	if q, res, ok := s.serveQuery(w, r, kindImpact); ok {
		s.writeImpact(w, q, res)
	}
}

// writeImpact renders an /impact answer, analytic or sampled.
func (s *Server) writeImpact(w http.ResponseWriter, q *query, res flowResult) {
	resp := impactResponse{
		Model: q.model.Name, Sources: nodeList(q.nodesKey), Cond: q.condKey,
		Cached: res.Cached, batchStats: res.batchStats,
	}
	switch a := res.Answer.(type) {
	case impactAnalytic:
		s.metrics.ImpactAnalytic.Add(1)
		resp.Mode, resp.Method, resp.Exact, resp.Dist = "analytic", a.method, a.exact, a.law
	case sizeLaw:
		s.metrics.ImpactSampled.Add(1)
		resp.Mode, resp.Method, resp.Samples, resp.Seed, resp.Dist = "sampled", "mh-sampled", q.opts.Samples, q.seed, a
	}
	resp.Mean = resp.Dist.mean()
	writeBody(w, http.StatusOK, resp.appendJSON)
}

// analyticImpact is /impact's analytic front. Unless q asks for sampling
// or carries conditions, it reads the source set's verdict from the
// cache or, while the server is not draining, from sizedist, and answers
// with the law when it is exact or mode=analytic asks for it; mode=analytic
// gets the verdict's 422 when no law applies. Otherwise — mode=auto with
// an inexact or no law — it returns no answer and no error, and the
// sampled estimator answers.
func (s *Server) analyticImpact(q *query) (flowResult, *httpError) {
	if q.mode == "sampled" || len(q.conds) > 0 {
		return flowResult{}, nil
	}
	v, cached, key, herr := s.lookup(q, (*query).appendAnalyticKey)
	if herr != nil {
		return flowResult{}, herr
	}
	if !cached {
		if herr := s.refuseDraining(); herr != nil {
			return flowResult{}, herr
		}
		res, err := sizedist.Compute(q.model.ICM, q.nodes, sizedist.DefaultOptions())
		verdict := impactAnalytic{err: err}
		if err == nil {
			verdict = impactAnalytic{method: res.Method.String(), exact: res.Exact, law: newSizeLaw(res.Dist)}
			keepAnswer(s.cache, key, verdict)
		}
		v = verdict
	}
	switch a := v.(impactAnalytic); {
	case a.err == nil && (a.exact || q.mode == "analytic"):
		if cached {
			s.metrics.CacheHits.Add(1)
		} else {
			s.metrics.CacheMisses.Add(1)
		}
		return flowResult{Answer: a, Cached: cached}, nil
	case q.mode == "analytic":
		return flowResult{}, &httpError{status: http.StatusUnprocessableEntity, msg: a.err.Error()}
	}
	return flowResult{}, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status, msg := http.StatusOK, "ok"
	if s.batcher.draining.Load() {
		status, msg = http.StatusServiceUnavailable, "draining"
	}
	writeBody(w, status, func(b []byte) []byte { return appendMessage(b, "status", msg) })
}

// ParseConds reads a cond= value for a model of n nodes; every endpoint
// reads its conditions through it, and so does flowquery -nested. It
// returns the value's comma-separated flow conditions — "u>v=1" (flow
// known present) or "u>v=0" (known absent), "" for none — in the
// canonical order canonicalConds gives them, with their key. It refuses
// a condition that does not parse or names a node outside [0, n), a set
// no state can satisfy on its face, and more than maxConds distinct
// conditions; a refusal is an *httpError, whose message is the one a
// served request gets.
func ParseConds(raw string, n int) ([]core.FlowCondition, string, error) {
	conds, err := readConds(raw)
	if err != nil {
		return nil, "", badRequest("cond: %v", err)
	}
	if err := checkConds(conds, n); err != nil {
		return nil, "", badRequest("%v", err)
	}
	conds, key, err := canonicalConds(conds)
	if err != nil {
		return nil, "", &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	if len(conds) > maxConds {
		return nil, "", badRequest("cond: %d distinct conditions, at most %d allowed", len(conds), maxConds)
	}
	return conds, key, nil
}

// readConds parses comma-separated flow conditions into core form, in
// list order. An empty string is no conditions. Ids parse at
// graph.NodeID's 32 bits, so an oversized id is an error, never a wrap.
func readConds(s string) ([]core.FlowCondition, error) {
	if s == "" {
		return nil, nil
	}
	var out []core.FlowCondition
	for _, part := range strings.Split(s, ",") {
		var c core.FlowCondition
		uv, req, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("condition %q: want u>v=0|1", part)
		}
		u, v, ok := strings.Cut(uv, ">")
		if !ok {
			return nil, fmt.Errorf("condition %q: want u>v=0|1", part)
		}
		un, err := strconv.ParseInt(strings.TrimSpace(u), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("condition %q: %w", part, err)
		}
		vn, err := strconv.ParseInt(strings.TrimSpace(v), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("condition %q: %w", part, err)
		}
		switch strings.TrimSpace(req) {
		case "1":
			c.Require = true
		case "0":
			c.Require = false
		default:
			return nil, fmt.Errorf("condition %q: requirement must be 0 or 1", part)
		}
		c.Source, c.Sink = graph.NodeID(un), graph.NodeID(vn)
		out = append(out, c)
	}
	return out, nil
}

// checkConds returns an error naming the first condition whose source
// or sink lies outside [0, n).
func checkConds(conds []core.FlowCondition, n int) error {
	for _, c := range conds {
		if int(c.Source) < 0 || int(c.Source) >= n || int(c.Sink) < 0 || int(c.Sink) >= n {
			return fmt.Errorf("cond %d>%d references a node out of range [0, %d)", c.Source, c.Sink, n)
		}
	}
	return nil
}

// maxConds bounds the distinct conditions one request may carry. A
// conditioned chain keeps an O(n) certificate per condition (see
// mh.Sampler), so without a bound a long cond= list of conditions that
// always hold would make one request allocate O(conditions × n).
const maxConds = 64

// canonicalConds sorts conditions by their rendered "u>v=r" form, drops
// exact duplicates, and returns them with the rendered key. Requests
// listing the same conditions in any order therefore share a batch and
// a cache line, and the chain — whose initial state depends on the
// order constructInitialState repairs conditions in — runs on the same
// list whichever request opened the batch. It rejects sets no state can
// satisfy on their face: a forbidden self-flow u>u=0, or a pair both
// required and forbidden.
func canonicalConds(conds []core.FlowCondition) ([]core.FlowCondition, string, error) {
	if len(conds) == 0 {
		return nil, "", nil
	}
	type rendered struct {
		c   core.FlowCondition
		key string
	}
	rs := make([]rendered, len(conds))
	for i, c := range conds {
		req := 0
		if c.Require {
			req = 1
		}
		rs[i] = rendered{c, fmt.Sprintf("%d>%d=%d", c.Source, c.Sink, req)}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].key < rs[j].key })
	out := make([]core.FlowCondition, 0, len(rs))
	parts := make([]string, 0, len(rs))
	for i, r := range rs {
		if i > 0 && r.key == rs[i-1].key {
			continue
		}
		c := r.c
		if c.Source == c.Sink && !c.Require {
			return nil, "", fmt.Errorf("cond %s: a node always reaches itself", r.key)
		}
		// u>v=0 and u>v=1 render alike up to their last byte, so they
		// sort next to each other.
		if len(out) > 0 {
			if last := out[len(out)-1]; last.Source == c.Source && last.Sink == c.Sink {
				return nil, "", fmt.Errorf("cond %d>%d is both required and forbidden", c.Source, c.Sink)
			}
		}
		out = append(out, c)
		parts = append(parts, r.key)
	}
	return out, strings.Join(parts, ","), nil
}
