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
// Determinism contract: batching, caching, kept chain starts and
// co-batched cancellation never change a query's answer. The chain's
// randomness is independent of the lane set, so a request's estimate is
// a pure function of (model digest, query, conditions, BurnIn, Thin,
// Samples, seed) — a single-request batch is bit-identical to scalar
// mh.FlowProb.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/mh"
	"infoflow/internal/sizedist"
)

// Model is one servable ICM. Digest is computed by NewServer when left
// empty.
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
	// 1024; negative disables caching). It also caps the kept burned-in
	// chain starts, which startBudget bounds in bytes as well; negative
	// keeps none.
	CacheSize int
	// DefaultSamples / MaxSamples bound the ?samples= parameter
	// (defaults 2000 / 50000).
	DefaultSamples int
	MaxSamples     int
	// DefaultSketchSamples is the thinned chain sample count /maximize
	// draws RR roots from when ?samples= is absent (default 64; RR roots
	// average over states, so far fewer chain samples are needed than a
	// point estimate wants).
	DefaultSketchSamples int
	// MaxSketchSets bounds the /maximize pool size: ?samples= times
	// ?roots= may not exceed it (default 65536). A pool's cover holds
	// 4 bytes per (node, set) membership, and never more than one bit
	// per (node, set) pair plus a fixed header per node.
	MaxSketchSets int
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
	if c.DefaultSketchSamples <= 0 {
		c.DefaultSketchSamples = 64
	}
	if c.MaxSketchSets <= 0 {
		c.MaxSketchSets = 65536
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

// Server routes flow queries into the batcher. Build with NewServer,
// mount via Handler, stop with Drain.
type Server struct {
	cfg      Config
	models   map[string]Model
	only     string // sole model name when len(models) == 1
	metrics  *Metrics
	cache    *lruCache
	batcher  *batcher
	mux      *http.ServeMux
	draining atomic.Bool
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
		s.models[m.Name] = m
	}
	if len(cfg.Models) == 1 {
		s.only = cfg.Models[0].Name
	}
	s.metrics = &Metrics{}
	s.metrics.laneBudget.Store(int64(cfg.LaneBudget))
	s.cache = newLRUCache(cfg.CacheSize, 0)
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
// cached answers are still served. Call once, on shutdown.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.batcher.drain()
}

// refuseDraining writes a 503 and reports true once Drain has begun. The
// handlers that compute synchronously call it before computing, as the
// batcher refuses joins.
func (s *Server) refuseDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	writeError(w, &httpError{status: http.StatusServiceUnavailable, msg: ErrDraining.Error()})
	return true
}

// query carries one parsed, validated request.
type query struct {
	model      Model
	kind       queryKind
	source     graph.NodeID
	sink       graph.NodeID // kindFlow only
	sources    []graph.NodeID
	sourcesKey string // kindImpact: canonical (sorted distinct) source set
	mode       string // kindImpact: "auto" | "analytic" | "sampled"
	conds      []core.FlowCondition
	condKey    string
	opts       mh.Options
	seed       uint64
	timeout    time.Duration
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

// parseQuery extracts and validates the parameters shared by /flow and
// /community.
func (s *Server) parseQuery(r *http.Request, kind queryKind) (*query, *httpError) {
	q := &query{kind: kind}
	vals := r.URL.Query()

	name := vals.Get("model")
	if name == "" {
		if s.only == "" {
			return nil, badRequest("model parameter required (serving %d models)", len(s.models))
		}
		name = s.only
	}
	m, ok := s.models[name]
	if !ok {
		return nil, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown model %q", name)}
	}
	q.model = m
	n := m.ICM.NumNodes()

	node := func(param string) (graph.NodeID, *httpError) {
		raw := vals.Get(param)
		if raw == "" {
			return 0, badRequest("%s parameter required", param)
		}
		v, err := strconv.Atoi(raw)
		if err != nil {
			return 0, badRequest("%s: %v", param, err)
		}
		if v < 0 || v >= n {
			return 0, badRequest("%s %d out of range [0, %d)", param, v, n)
		}
		return graph.NodeID(v), nil
	}
	var herr *httpError
	if kind == kindImpact {
		srcs, err := ParseSources(vals.Get("sources"))
		if err != nil {
			return nil, badRequest("sources: %v", err)
		}
		if len(srcs) == 0 {
			return nil, badRequest("sources parameter required")
		}
		for _, src := range srcs {
			if int(src) < 0 || int(src) >= n {
				return nil, badRequest("sources: node %d out of range [0, %d)", src, n)
			}
		}
		// Canonical sorted-distinct form: the impact law depends only on
		// the SET, so "3,1,3" and "1,3" share a lane and a cache line.
		distinct, _ := core.DedupSources(n, srcs)
		sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })
		q.sources = distinct
		q.sourcesKey = sourcesKey(distinct)
		switch mode := vals.Get("mode"); mode {
		case "", "auto":
			q.mode = "auto"
		case "analytic", "sampled":
			q.mode = mode
		default:
			return nil, badRequest("mode %q: want auto, analytic, or sampled", mode)
		}
	} else {
		if q.source, herr = node("source"); herr != nil {
			return nil, herr
		}
		if kind == kindFlow {
			if q.sink, herr = node("sink"); herr != nil {
				return nil, herr
			}
		}
	}

	if q.conds, q.condKey, herr = parseCondParam(vals.Get("cond"), n); herr != nil {
		return nil, herr
	}

	samples := s.cfg.DefaultSamples
	var err error
	if raw := vals.Get("samples"); raw != "" {
		if samples, err = strconv.Atoi(raw); err != nil {
			return nil, badRequest("samples: %v", err)
		}
		if samples <= 0 || samples > s.cfg.MaxSamples {
			return nil, badRequest("samples %d out of range [1, %d]", samples, s.cfg.MaxSamples)
		}
	}
	q.seed = s.cfg.DefaultSeed
	if raw := vals.Get("seed"); raw != "" {
		if q.seed, err = strconv.ParseUint(raw, 10, 64); err != nil {
			return nil, badRequest("seed: %v", err)
		}
	}
	q.timeout = s.cfg.DefaultTimeout
	if raw := vals.Get("timeout"); raw != "" {
		if q.timeout, err = time.ParseDuration(raw); err != nil {
			return nil, badRequest("timeout: %v", err)
		}
		if q.timeout <= 0 {
			return nil, badRequest("timeout must be positive")
		}
	}

	// Chain schedule matches what a scalar mh.FlowProb caller would use
	// for this model, so single-request batches are bit-identical to the
	// library answer.
	q.opts = mh.DefaultOptions(m.ICM.NumEdges())
	q.opts.Samples = samples
	return q, nil
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

func (q *query) cacheKey() string {
	switch q.kind {
	case kindCommunity:
		return fmt.Sprintf("%s|community|%d|%d|%s|%d|%d|%d|%d",
			q.model.Digest, q.source, q.sink, q.condKey,
			q.opts.BurnIn, q.opts.Thin, q.opts.Samples, q.seed)
	case kindImpact:
		return fmt.Sprintf("%s|impact|%s|%s|%d|%d|%d|%d",
			q.model.Digest, q.sourcesKey, q.condKey,
			q.opts.BurnIn, q.opts.Thin, q.opts.Samples, q.seed)
	default:
		return fmt.Sprintf("%s|flow|%d|%d|%s|%d|%d|%d|%d",
			q.model.Digest, q.source, q.sink, q.condKey,
			q.opts.BurnIn, q.opts.Thin, q.opts.Samples, q.seed)
	}
}

// analyticCacheKey keys the analytic /impact path: the exact law depends
// only on the model and the source set — no chain schedule, seed, or
// sample count — so analytic entries are shared across all of them.
func (q *query) analyticCacheKey() string {
	return fmt.Sprintf("%s|impact-analytic|%s", q.model.Digest, q.sourcesKey)
}

// dispatch joins the query's batch and waits for its result or the
// request deadline; returned *httpError is ready to write.
func (s *Server) dispatch(r *http.Request, q *query) (flowResult, *httpError) {
	ctx, cancel := context.WithTimeout(r.Context(), q.timeout)
	defer cancel()
	pair := mh.FlowPair{Source: q.source, Sink: q.sink}
	if q.kind == kindCommunity {
		pair.Sink = q.source
	}
	m, err := s.batcher.join(ctx, q.batchKey(), q.model.ICM, q.conds, pair, q.sources, q.sourcesKey, q.cacheKey())
	if err != nil {
		return flowResult{}, &httpError{status: http.StatusServiceUnavailable, msg: err.Error()}
	}
	select {
	case res := <-m.done:
		if res.Err != nil {
			return flowResult{}, s.mapBatchError(ctx, res.Err)
		}
		return res, nil
	case <-ctx.Done():
		s.metrics.Timeouts.Add(1)
		return flowResult{}, &httpError{status: http.StatusGatewayTimeout,
			msg: fmt.Sprintf("deadline exceeded after %v", q.timeout)}
	}
}

func (s *Server) mapBatchError(ctx context.Context, err error) *httpError {
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

type flowResponse struct {
	Model      string  `json:"model"`
	Source     int     `json:"source"`
	Sink       int     `json:"sink"`
	Cond       string  `json:"cond,omitempty"`
	Prob       float64 `json:"prob"`
	Samples    int     `json:"samples"`
	Seed       uint64  `json:"seed"`
	Cached     bool    `json:"cached"`
	BatchSize  int     `json:"batch_size,omitempty"`
	Lanes      int     `json:"lanes,omitempty"`
	Acceptance float64 `json:"acceptance_rate,omitempty"`
}

func (s *Server) handleFlow(w http.ResponseWriter, r *http.Request) {
	s.metrics.FlowRequests.Add(1)
	q, herr := s.parseQuery(r, kindFlow)
	if herr != nil {
		writeError(w, herr)
		return
	}
	resp := flowResponse{
		Model: q.model.Name, Source: int(q.source), Sink: int(q.sink),
		Cond: q.condKey, Samples: q.opts.Samples, Seed: q.seed,
	}
	if v, ok := s.cache.Get(q.cacheKey()); ok {
		s.metrics.CacheHits.Add(1)
		resp.Prob, resp.Cached = v.(float64), true
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.metrics.CacheMisses.Add(1)
	res, herr := s.dispatch(r, q)
	if herr != nil {
		writeError(w, herr)
		return
	}
	resp.Prob = res.Prob
	resp.BatchSize, resp.Lanes, resp.Acceptance = res.BatchSize, res.Lanes, res.Acceptance
	writeJSON(w, http.StatusOK, resp)
}

type communityEntry struct {
	Node int     `json:"node"`
	Prob float64 `json:"prob"`
}

type communityResponse struct {
	Model      string           `json:"model"`
	Source     int              `json:"source"`
	Cond       string           `json:"cond,omitempty"`
	Samples    int              `json:"samples"`
	Seed       uint64           `json:"seed"`
	Cached     bool             `json:"cached"`
	Top        []communityEntry `json:"top"`
	BatchSize  int              `json:"batch_size,omitempty"`
	Lanes      int              `json:"lanes,omitempty"`
	Acceptance float64          `json:"acceptance_rate,omitempty"`
}

func (s *Server) handleCommunity(w http.ResponseWriter, r *http.Request) {
	s.metrics.CommunityRequests.Add(1)
	q, herr := s.parseQuery(r, kindCommunity)
	if herr != nil {
		writeError(w, herr)
		return
	}
	top := 10
	if raw := r.URL.Query().Get("top"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			writeError(w, badRequest("top must be a positive integer"))
			return
		}
		top = v
	}
	resp := communityResponse{
		Model: q.model.Name, Source: int(q.source),
		Cond: q.condKey, Samples: q.opts.Samples, Seed: q.seed,
	}
	// The cache stores the whole community (its support) so ?top= never
	// splits cache entries.
	if v, ok := s.cache.Get(q.cacheKey()); ok {
		s.metrics.CacheHits.Add(1)
		resp.Cached = true
		resp.Top = topFlows(v.(communityLaw).dist(), q.source, top)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.metrics.CacheMisses.Add(1)
	res, herr := s.dispatch(r, q)
	if herr != nil {
		writeError(w, herr)
		return
	}
	resp.Top = topFlows(res.Community, q.source, top)
	resp.BatchSize, resp.Lanes, resp.Acceptance = res.BatchSize, res.Lanes, res.Acceptance
	writeJSON(w, http.StatusOK, resp)
}

// communityLaw is a cached /community vector without its zeros: the
// nodes the source reached in some sample, their probabilities, and the
// vector's length. The vector holds a probability per node, 48 KB at
// §IV-C scale, but a source reaches a small share of the graph there.
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

// dist pads the support back to the full vector: the one the estimator
// returned, bit for bit, since every other entry was +0.
func (c communityLaw) dist() []float64 {
	out := make([]float64, c.n)
	for i, v := range c.nodes {
		out[v] = c.probs[i]
	}
	return out
}

// topFlows renders TopCommunity's ranking of a community vector as
// response entries.
func topFlows(probs []float64, source graph.NodeID, top int) []communityEntry {
	nodes := TopCommunity(probs, source, top)
	out := make([]communityEntry, len(nodes))
	for i, v := range nodes {
		out[i] = communityEntry{Node: int(v), Prob: probs[v]}
	}
	return out
}

// TopCommunity ranks a community vector (Pr[source ~> v] per node v):
// every node but the source with a positive probability, most probable
// first, ties broken by node id, cut to the first top. Shared with the
// flowquery CLI, so both list a community in the same order. top is
// client input with no upper bound, so it sizes nothing beyond the
// vector's length.
func TopCommunity(probs []float64, source graph.NodeID, top int) []graph.NodeID {
	out := make([]graph.NodeID, 0, min(top, len(probs)))
	for v, p := range probs {
		if graph.NodeID(v) != source && p > 0 {
			out = append(out, graph.NodeID(v))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		//flowlint:ignore floatcmp -- sort tiebreak: both probabilities are k/Samples quotients from the same chain, equal iff their hit counts are; no rounding tolerance is meaningful here
		if pi, pj := probs[out[i]], probs[out[j]]; pi != pj {
			return pi > pj
		}
		return out[i] < out[j]
	})
	if len(out) > top {
		out = out[:top]
	}
	return out
}

// impactResponse is the /impact payload. Method labels the estimator
// that produced Dist — a sizedist.Method name for the analytic path,
// "mh-sampled" for the batched chain — and Exact reports whether Dist is
// the exact law (sampled and bounded-analytic answers are not).
type impactResponse struct {
	Model      string    `json:"model"`
	Sources    []int     `json:"sources"`
	Cond       string    `json:"cond,omitempty"`
	Mode       string    `json:"mode"`
	Method     string    `json:"method"`
	Exact      bool      `json:"exact"`
	Mean       float64   `json:"mean"`
	Dist       []float64 `json:"dist"`
	Samples    int       `json:"samples,omitempty"`
	Seed       uint64    `json:"seed,omitempty"`
	Cached     bool      `json:"cached"`
	BatchSize  int       `json:"batch_size,omitempty"`
	Lanes      int       `json:"lanes,omitempty"`
	Acceptance float64   `json:"acceptance_rate,omitempty"`
}

// impactAnalytic is the cached form of an analytic /impact answer.
type impactAnalytic struct {
	method string
	exact  bool
	law    sizeLaw
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

// dist pads the support back to the law's full length: the vector the
// estimator returned, bit for bit.
func (l sizeLaw) dist() []float64 {
	out := make([]float64, l.length)
	copy(out, l.support)
	return out
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
	q, herr := s.parseQuery(r, kindImpact)
	if herr != nil {
		writeError(w, herr)
		return
	}
	if q.mode == "analytic" && len(q.conds) > 0 {
		writeError(w, badRequest("mode=analytic does not support cond: the analytic engine computes the unconditional law"))
		return
	}
	resp := impactResponse{
		Model: q.model.Name, Sources: nodeInts(q.sources), Cond: q.condKey,
	}
	if q.mode != "sampled" && len(q.conds) == 0 {
		if v, ok := s.cache.Get(q.analyticCacheKey()); ok {
			// Inexact entries are cached too, so auto-mode repeats on a
			// loop-heavy model skip straight to sampling instead of
			// re-deriving the condensation bound every request.
			entry := v.(impactAnalytic)
			if entry.exact || q.mode == "analytic" {
				s.metrics.CacheHits.Add(1)
				s.metrics.ImpactAnalytic.Add(1)
				resp.Mode, resp.Method, resp.Exact, resp.Cached = "analytic", entry.method, entry.exact, true
				resp.Dist = entry.law.dist()
				resp.Mean = distMean(resp.Dist)
				writeJSON(w, http.StatusOK, resp)
				return
			}
		} else {
			if s.refuseDraining(w) {
				return
			}
			res, err := sizedist.Compute(q.model.ICM, q.sources, sizedist.DefaultOptions())
			if err == nil {
				s.cache.Add(q.analyticCacheKey(), impactAnalytic{method: res.Method.String(), exact: res.Exact, law: newSizeLaw(res.Dist)})
			}
			switch {
			case err == nil && (res.Exact || q.mode == "analytic"):
				s.metrics.CacheMisses.Add(1)
				s.metrics.ImpactAnalytic.Add(1)
				resp.Mode, resp.Method, resp.Exact = "analytic", res.Method.String(), res.Exact
				resp.Dist, resp.Mean = res.Dist, res.Mean()
				writeJSON(w, http.StatusOK, resp)
				return
			case q.mode == "analytic":
				writeError(w, &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()})
				return
			}
		}
		// mode=auto with an inexact (or intractable) analytic answer:
		// fall through to the sampled estimator.
	}
	resp.Mode, resp.Method = "sampled", "mh-sampled"
	resp.Samples, resp.Seed = q.opts.Samples, q.seed
	if v, ok := s.cache.Get(q.cacheKey()); ok {
		s.metrics.CacheHits.Add(1)
		s.metrics.ImpactSampled.Add(1)
		resp.Cached = true
		resp.Dist = v.(sizeLaw).dist()
		resp.Mean = distMean(resp.Dist)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.metrics.CacheMisses.Add(1)
	res, herr := s.dispatch(r, q)
	if herr != nil {
		writeError(w, herr)
		return
	}
	s.metrics.ImpactSampled.Add(1)
	resp.Dist = res.Impact
	resp.Mean = distMean(resp.Dist)
	resp.BatchSize, resp.Lanes, resp.Acceptance = res.BatchSize, res.Lanes, res.Acceptance
	writeJSON(w, http.StatusOK, resp)
}

// nodeInts renders a node slice for a JSON payload.
func nodeInts(nodes []graph.NodeID) []int {
	out := make([]int, len(nodes))
	for i, v := range nodes {
		out[i] = int(v)
	}
	return out
}

// distMean is the expected impact of a normalized size histogram.
func distMean(dist []float64) float64 {
	mean := 0.0
	for k, p := range dist {
		mean += float64(k) * p
	}
	return mean
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, herr *httpError) {
	writeJSON(w, herr.status, map[string]string{"error": herr.msg})
}

// ParseConds parses comma-separated flow conditions — "u>v=1" (flow
// known present) or "u>v=0" (known absent) — into core form. An empty
// string is no conditions. Ids parse at graph.NodeID's 32 bits, so an
// oversized id is an error, never a wrap. Shared with the flowquery CLI.
func ParseConds(s string) ([]core.FlowCondition, error) {
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

// CheckConds returns an error naming the first condition whose source
// or sink lies outside [0, n). Shared with the flowquery CLI.
func CheckConds(conds []core.FlowCondition, n int) error {
	for _, c := range conds {
		if int(c.Source) < 0 || int(c.Source) >= n || int(c.Sink) < 0 || int(c.Sink) >= n {
			return fmt.Errorf("cond %d>%d references a node out of range [0, %d)", c.Source, c.Sink, n)
		}
	}
	return nil
}

// ParseSources parses a comma-separated node-id list ("3,1,7") into
// node IDs. Whitespace around entries is tolerated; an empty string is
// an empty set. Ids are parsed at 32 bits, as in ParseConds; range
// validation is the caller's job (it needs the model). Shared with the
// flowquery CLI.
func ParseSources(s string) ([]graph.NodeID, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]graph.NodeID, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("source %q: %w", part, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("source %d: must be non-negative", v)
		}
		out = append(out, graph.NodeID(v))
	}
	return out, nil
}

// sourcesKey renders a canonical (already sorted, distinct) source set
// for batch and cache keys.
func sourcesKey(sources []graph.NodeID) string {
	parts := make([]string, len(sources))
	for i, v := range sources {
		parts[i] = strconv.Itoa(int(v))
	}
	return strings.Join(parts, ",")
}

// maxConds bounds the distinct conditions one request may carry. A
// conditioned chain keeps an O(n) certificate per condition (see
// mh.Sampler), so without a bound a long cond= list of conditions that
// always hold would make one request allocate O(conditions × n).
const maxConds = 64

// parseCondParam parses and validates a cond= value for a model of n
// nodes and returns its canonical form (see CanonicalConds).
func parseCondParam(raw string, n int) ([]core.FlowCondition, string, *httpError) {
	conds, err := ParseConds(raw)
	if err != nil {
		return nil, "", badRequest("cond: %v", err)
	}
	if err := CheckConds(conds, n); err != nil {
		return nil, "", badRequest("%v", err)
	}
	conds, key, err := CanonicalConds(conds)
	if err != nil {
		return nil, "", &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	if len(conds) > maxConds {
		return nil, "", badRequest("cond: %d distinct conditions, at most %d allowed", len(conds), maxConds)
	}
	return conds, key, nil
}

// CanonicalConds sorts conditions by their rendered "u>v=r" form, drops
// exact duplicates, and returns them with the rendered key. Requests
// listing the same conditions in any order therefore share a batch and
// a cache line, and the chain — whose initial state depends on the
// order constructInitialState repairs conditions in — runs on the same
// list whichever request opened the batch. It rejects sets no state can
// satisfy on their face: a forbidden self-flow u>u=0, or a pair both
// required and forbidden. Shared with the flowquery CLI, so both run a
// condition list in the same order.
func CanonicalConds(conds []core.FlowCondition) ([]core.FlowCondition, string, error) {
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
