package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"infoflow/internal/graph"
	"infoflow/internal/influence"
	"infoflow/internal/mh"
	"infoflow/internal/rng"
)

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
	Model          string         `json:"model"`
	K              int            `json:"k"`
	Community      nodeList       `json:"community,omitempty"`
	Cond           string         `json:"cond,omitempty"`
	Seeds          []graph.NodeID `json:"seeds"`
	MarginalGains  []float64      `json:"marginal_gains"`
	SpreadEstimate float64        `json:"spread_estimate"`
	Universe       int            `json:"universe"`
	RRSets         int            `json:"rr_sets"`
	Samples        int            `json:"samples"`
	Roots          int            `json:"roots"`
	Seed           uint64         `json:"seed"`
	Cached         bool           `json:"cached"`
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
//
// The k-prefix is the seeds and gains influence.Maximize returns for k
// on the same pool, bit for bit.
func (s *Server) handleMaximize(w http.ResponseWriter, r *http.Request) {
	s.metrics.MaximizeRequests.Add(1)
	if q, res, ok := s.serveQuery(w, r, kindMaximize); ok {
		s.writeMaximize(w, q, res)
	}
}

// writeMaximize renders a /maximize answer: the budget's prefix of the
// pool's ranking.
func (s *Server) writeMaximize(w http.ResponseWriter, q *query, res flowResult) {
	ans := res.Answer.(maximizeAnswer)
	sel := ans.ranking.Prefix(q.k)
	if !res.Cached {
		s.metrics.MaximizeSeeds.Add(int64(len(sel.Seeds)))
	}
	resp := maximizeResponse{
		Model: q.model.Name, K: q.k, Community: nodeList(q.nodesKey), Cond: q.condKey,
		Seeds: sel.Seeds, MarginalGains: sel.MarginalGains, SpreadEstimate: sel.SpreadEstimate,
		Universe: ans.universe, RRSets: ans.rrSets,
		Samples: q.opts.Samples, Roots: q.roots, Seed: q.seed, Cached: res.Cached,
	}
	writeBody(w, http.StatusOK, resp.appendJSON)
}

// maximize computes a /maximize miss: it builds q's RR pool with the
// chain polling ctx, ranks the pool to saturation, and caches the
// ranking under key, the pool's identity.
func (s *Server) maximize(ctx context.Context, q *query, key string) (flowResult, *httpError) {
	if herr := s.refuseDraining(); herr != nil {
		return flowResult{}, herr
	}
	chain := q.opts
	chain.Interrupt = func() bool { return ctx.Err() != nil }
	pool, err := mh.BuildRRPool(q.model.ICM, q.nodes, q.conds, q.roots, 0, chain, rng.New(q.seed))
	var ranking *influence.Ranking
	if err == nil {
		ranking, err = influence.RankSketch(pool, nil)
	}
	if errors.Is(err, mh.ErrInterrupted) && ctx.Err() != nil {
		err = fmt.Errorf("deadline exceeded after %v: %w", q.timeout, err)
	}
	if err != nil {
		return flowResult{}, s.mapError(ctx, err)
	}
	ans := maximizeAnswer{ranking: ranking, universe: pool.Universe, rrSets: pool.NumSets}
	keepAnswer(s.cache, key, ans)
	s.metrics.MaximizeSketchSets.Add(int64(pool.NumSets))
	s.metrics.MaximizeSketchMembers.Add(int64(pool.Cover.Count()))
	return flowResult{Answer: ans}, nil
}
