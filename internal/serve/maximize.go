package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/influence"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
)

// maximizeQuery carries one parsed, validated /maximize request. Unlike
// the batched query kinds it never joins the batcher: the RIS pipeline
// runs its own chain, so the request executes synchronously in the
// handler with the chain's Interrupt wired to the request context.
type maximizeQuery struct {
	model      Model
	k          int
	targets    []graph.NodeID // community restriction; nil = every node
	targetsKey string         // canonical (sorted distinct) form, "" = all
	conds      []core.FlowCondition
	condKey    string
	chain      mh.Options
	roots      int // RR roots per thinned sample
	seed       uint64
	timeout    time.Duration
}

// parseMaximizeQuery extracts and validates /maximize parameters:
// k (required seed budget), community= (optional target node set, the
// spread is counted over it), cond= (shared ParseConds grammar),
// samples= (thinned chain samples, bounded so samples×roots stays under
// Config.MaxSketchSets), roots= (RR roots per sample, a multiple of 64),
// seed=, timeout=.
func (s *Server) parseMaximizeQuery(r *http.Request) (*maximizeQuery, *httpError) {
	q := &maximizeQuery{}
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

	rawK := vals.Get("k")
	if rawK == "" {
		return nil, badRequest("k parameter required")
	}
	k, err := strconv.Atoi(rawK)
	if err != nil {
		return nil, badRequest("k: %v", err)
	}
	if k <= 0 || k > n {
		return nil, badRequest("k %d out of range [1, %d]", k, n)
	}
	q.k = k

	if raw := vals.Get("community"); raw != "" {
		targets, err := ParseSources(raw)
		if err != nil {
			return nil, badRequest("community: %v", err)
		}
		if len(targets) == 0 {
			return nil, badRequest("community parameter must name at least one node")
		}
		for _, v := range targets {
			if int(v) < 0 || int(v) >= n {
				return nil, badRequest("community: node %d out of range [0, %d)", v, n)
			}
		}
		// Canonical sorted-distinct form: the selection depends only on
		// the target SET, so permutations share a cache line.
		distinct, _ := core.DedupSources(n, targets)
		sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })
		q.targets = distinct
		q.targetsKey = sourcesKey(distinct)
	}

	var herr *httpError
	if q.conds, q.condKey, herr = parseCondParam(vals.Get("cond"), n); herr != nil {
		return nil, herr
	}

	samples := s.cfg.DefaultSketchSamples
	if raw := vals.Get("samples"); raw != "" {
		if samples, err = strconv.Atoi(raw); err != nil {
			return nil, badRequest("samples: %v", err)
		}
		if samples <= 0 {
			return nil, badRequest("samples %d must be positive", samples)
		}
	}
	q.roots = mh.DefaultRootsPerSample
	if raw := vals.Get("roots"); raw != "" {
		if q.roots, err = strconv.Atoi(raw); err != nil {
			return nil, badRequest("roots: %v", err)
		}
		if q.roots <= 0 || q.roots%mh.LaneWidth != 0 {
			return nil, badRequest("roots %d must be a positive multiple of %d", q.roots, mh.LaneWidth)
		}
	}
	if sets := samples * q.roots; sets > s.cfg.MaxSketchSets || sets/q.roots != samples {
		return nil, badRequest("samples %d x roots %d exceeds the sketch budget of %d RR sets",
			samples, q.roots, s.cfg.MaxSketchSets)
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

	// Burn-in and thinning match the scalar estimator defaults for this
	// model, so a served selection is bit-identical to the library call
	// influence.Maximize with the same schedule and seed.
	q.chain = mh.DefaultOptions(m.ICM.NumEdges())
	q.chain.Samples = samples
	return q, nil
}

// cacheKey is the identity of the RR pool a /maximize request selects
// from: model digest plus every input the pool is a deterministic
// function of. The budget k is not part of it, because every budget's
// selection is a prefix of the pool's one greedy ranking.
func (q *maximizeQuery) cacheKey() string {
	return fmt.Sprintf("%s|maximize|%s|%s|%d|%d|%d|%d|%d",
		q.model.Digest, q.targetsKey, q.condKey,
		q.chain.BurnIn, q.chain.Thin, q.chain.Samples, q.roots, q.seed)
}

// maximizeAnswer is the cached form of a pool: its greedy ranking up to
// saturation, which answers every budget, and the pool's shape. The
// pool itself is not kept.
type maximizeAnswer struct {
	ranking  *influence.Ranking
	universe int
	rrSets   int
}

// maximizeResponse is the /maximize payload. Seeds are in selection
// order; MarginalGains[i] is the RIS-estimated spread gain of Seeds[i]
// over the target universe at selection time, and SpreadEstimate is
// exactly their sum (the pool estimator contract).
type maximizeResponse struct {
	Model          string    `json:"model"`
	K              int       `json:"k"`
	Community      []int     `json:"community,omitempty"`
	Cond           string    `json:"cond,omitempty"`
	Seeds          []int     `json:"seeds"`
	MarginalGains  []float64 `json:"marginal_gains"`
	SpreadEstimate float64   `json:"spread_estimate"`
	Universe       int       `json:"universe"`
	RRSets         int       `json:"rr_sets"`
	Samples        int       `json:"samples"`
	Roots          int       `json:"roots"`
	Seed           uint64    `json:"seed"`
	Cached         bool      `json:"cached"`
}

// handleMaximize serves RIS-sketch influence maximization: build a
// reverse-reachability pool over the model (restricted to the community
// target set when given, conditioned by cond=), rank its nodes by
// deterministic lazy-greedy maximum coverage up to saturation, and
// answer k with the ranking's k-prefix. The pipeline runs synchronously
// — its chain polls the request context, so a client deadline
// interrupts the pool build — and the ranking is LRU-cached under the
// pool identity, so every other budget on the same pool is a cache hit.
// While the server drains it computes nothing new (503).
func (s *Server) handleMaximize(w http.ResponseWriter, r *http.Request) {
	s.metrics.MaximizeRequests.Add(1)
	q, herr := s.parseMaximizeQuery(r)
	if herr != nil {
		writeError(w, herr)
		return
	}
	resp := maximizeResponse{
		Model: q.model.Name, K: q.k, Community: nodeInts(q.targets), Cond: q.condKey,
		Samples: q.chain.Samples, Roots: q.roots, Seed: q.seed,
	}
	if v, ok := s.cache.Get(q.cacheKey()); ok {
		s.metrics.CacheHits.Add(1)
		resp.Cached = true
		resp.answer(v.(maximizeAnswer), q.k)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.metrics.CacheMisses.Add(1)
	if s.refuseDraining(w) {
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), q.timeout)
	defer cancel()
	chain := q.chain
	chain.Interrupt = func() bool { return ctx.Err() != nil }
	pool, err := mh.BuildRRPool(q.model.ICM, q.targets, q.conds, q.roots, 0, chain, rng.New(q.seed))
	if err != nil {
		writeError(w, s.mapMaximizeError(ctx, q, err))
		return
	}
	ranking, err := influence.RankSketch(pool, nil)
	if err != nil {
		writeError(w, s.mapMaximizeError(ctx, q, err))
		return
	}
	ans := maximizeAnswer{ranking: ranking, universe: pool.Universe, rrSets: pool.NumSets}
	s.cache.Add(q.cacheKey(), ans)
	resp.answer(ans, q.k)
	s.metrics.MaximizeSeeds.Add(int64(len(resp.Seeds)))
	s.metrics.MaximizeSketchSets.Add(int64(pool.NumSets))
	s.metrics.MaximizeSketchMembers.Add(int64(pool.Cover.Count()))
	writeJSON(w, http.StatusOK, resp)
}

// answer fills the selection fields with the k-prefix of a cached
// ranking: the seeds and gains influence.Maximize returns for k on the
// same pool, bit for bit.
func (resp *maximizeResponse) answer(ans maximizeAnswer, k int) {
	res := ans.ranking.Prefix(k)
	resp.Seeds, resp.MarginalGains, resp.SpreadEstimate = nodeInts(res.Seeds), res.MarginalGains, res.SpreadEstimate
	resp.Universe, resp.RRSets = ans.universe, ans.rrSets
}

func (s *Server) mapMaximizeError(ctx context.Context, q *maximizeQuery, err error) *httpError {
	switch {
	case errors.Is(err, mh.ErrInterrupted) && ctx.Err() != nil:
		s.metrics.Timeouts.Add(1)
		return &httpError{status: http.StatusGatewayTimeout,
			msg: fmt.Sprintf("deadline exceeded after %v: %v", q.timeout, err)}
	case errors.Is(err, mh.ErrUnsatisfiable):
		return &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	default:
		return &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
}
