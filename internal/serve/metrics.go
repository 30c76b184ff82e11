package serve

import (
	"expvar"
	"math"
	"sync"
	"sync/atomic"
)

// Metrics is the server's operational counter set. Everything is
// atomics, safe to read concurrently with serving; Snapshot assembles
// the derived gauges (occupancy, hit rate) the same way the expvar
// export does.
type Metrics struct {
	// Requests admitted per endpoint (cache hits included).
	FlowRequests      atomic.Int64
	CommunityRequests atomic.Int64
	ImpactRequests    atomic.Int64

	// How /impact requests were answered: by the synchronous analytic
	// sizedist engine or by the batched MH estimator (cache hits count
	// toward the path that filled the entry).
	ImpactAnalytic atomic.Int64
	ImpactSampled  atomic.Int64

	// /maximize traffic: requests admitted (cache hits included), seeds
	// selected by computed (non-cached) selections, and RR sketch sets
	// built for them. MaximizeSketchSets / computed selections is the
	// mean pool size actually served.
	MaximizeRequests   atomic.Int64
	MaximizeSeeds      atomic.Int64
	MaximizeSketchSets atomic.Int64

	CacheHits   atomic.Int64
	CacheMisses atomic.Int64

	// Batches that began from a kept burned-in chain start (hits) and
	// batches that built and burned in their own chain (misses); see
	// batcher.chain. StartBytes is what the kept starts hold.
	StartHits   atomic.Int64
	StartMisses atomic.Int64

	// Batches executed, the lane count they carried, and the request
	// count they served. BatchedRequests / Batches is the coalescing
	// ("batch occupancy") figure: how many concurrent requests one chain
	// amortised.
	Batches         atomic.Int64
	BatchedLanes    atomic.Int64
	BatchedRequests atomic.Int64

	// Rejected counts requests refused at admission or flush (queue
	// saturated or server draining); Timeouts counts requests whose
	// deadline expired before their batch delivered; Errors counts
	// batches that failed outright.
	Rejected atomic.Int64
	Timeouts atomic.Int64
	Errors   atomic.Int64

	// LaneReplays, LaneRepairs and LaneRebuilds are never written and
	// always read 0. They are kept only because servebench/drive.go, the
	// frozen serving benchmark, reads them.
	//
	// Deprecated: no batch reuses traversal state across samples.
	LaneReplays  atomic.Int64
	LaneRepairs  atomic.Int64
	LaneRebuilds atomic.Int64

	// acceptanceBits holds the float64 bits of the most recent batch's
	// post-burn-in Metropolis-Hastings acceptance rate.
	acceptanceBits atomic.Uint64

	// laneBudget mirrors Config.LaneBudget (after defaults and the
	// cap); installed by NewServer so utilization can be derived from
	// BatchedLanes.
	laneBudget atomic.Int64

	// queueDepth reports the number of flushed batches waiting for a
	// worker; installed by the batcher.
	queueDepth atomic.Value // func() int

	// startBytes reports the bytes the kept chain starts hold; installed
	// by the batcher.
	startBytes atomic.Value // func() int
}

// setAcceptance records the most recent chain's post-burn-in acceptance
// rate.
func (m *Metrics) setAcceptance(rate float64) {
	m.acceptanceBits.Store(math.Float64bits(rate))
}

// Acceptance returns the most recent batch's post-burn-in acceptance
// rate (0 before any batch has run).
func (m *Metrics) Acceptance() float64 {
	return math.Float64frombits(m.acceptanceBits.Load())
}

// QueueDepth returns the number of flushed batches waiting for a worker.
func (m *Metrics) QueueDepth() int {
	if f, ok := m.queueDepth.Load().(func() int); ok {
		return f()
	}
	return 0
}

// StartBytes returns the bytes the kept chain starts hold, within the
// server's fixed start budget.
func (m *Metrics) StartBytes() int {
	if f, ok := m.startBytes.Load().(func() int); ok {
		return f()
	}
	return 0
}

// Occupancy returns the mean number of requests served per executed
// batch (0 before any batch has run).
func (m *Metrics) Occupancy() float64 {
	b := m.Batches.Load()
	if b == 0 {
		return 0
	}
	return float64(m.BatchedRequests.Load()) / float64(b)
}

// LaneBudget returns the server's configured lane budget (defaulted and
// capped): the most distinct queries one batch may coalesce.
func (m *Metrics) LaneBudget() int {
	return int(m.laneBudget.Load())
}

// LaneUtilization returns the mean fraction of the lane budget that
// executed batches actually filled (0 before any batch has run; 1.0
// means every batch flushed lane-full rather than on the window). Low
// utilization at high occupancy signals heavy query deduplication; low
// utilization at low occupancy signals the budget outruns the offered
// load and the window is doing the flushing.
func (m *Metrics) LaneUtilization() float64 {
	b, budget := m.Batches.Load(), m.laneBudget.Load()
	if b == 0 || budget == 0 {
		return 0
	}
	return float64(m.BatchedLanes.Load()) / float64(b*budget)
}

// CacheHitRate returns hits / (hits + misses), 0 when nothing has been
// looked up.
func (m *Metrics) CacheHitRate() float64 {
	h, miss := m.CacheHits.Load(), m.CacheMisses.Load()
	if h+miss == 0 {
		return 0
	}
	return float64(h) / float64(h+miss)
}

// Snapshot returns the counters and derived gauges as a flat map, the
// payload served under the "flowserve" expvar and handy for tests.
func (m *Metrics) Snapshot() map[string]any {
	return map[string]any{
		"flow_requests":      m.FlowRequests.Load(),
		"community_requests": m.CommunityRequests.Load(),
		"impact_requests":    m.ImpactRequests.Load(),
		"impact_analytic":    m.ImpactAnalytic.Load(),
		"impact_sampled":     m.ImpactSampled.Load(),
		"maximize_requests":  m.MaximizeRequests.Load(),
		"maximize_seeds":     m.MaximizeSeeds.Load(),
		"maximize_rr_sets":   m.MaximizeSketchSets.Load(),
		"cache_hits":         m.CacheHits.Load(),
		"cache_misses":       m.CacheMisses.Load(),
		"cache_hit_rate":     m.CacheHitRate(),
		"start_hits":         m.StartHits.Load(),
		"start_misses":       m.StartMisses.Load(),
		"start_bytes":        m.StartBytes(),
		"batches":            m.Batches.Load(),
		"batched_lanes":      m.BatchedLanes.Load(),
		"batched_requests":   m.BatchedRequests.Load(),
		"batch_occupancy":    m.Occupancy(),
		"lane_budget":        m.LaneBudget(),
		"lane_utilization":   m.LaneUtilization(),
		"queue_depth":        m.QueueDepth(),
		"rejected":           m.Rejected.Load(),
		"timeouts":           m.Timeouts.Load(),
		"errors":             m.Errors.Load(),
		"acceptance_rate":    m.Acceptance(),
	}
}

// activeMetrics is the Metrics instance the process-wide "flowserve"
// expvar reads. expvar's registry is global and rejects re-publishing a
// name, so the var is published once and indirects through this pointer;
// each NewServer installs its metrics here (tests that build several
// servers simply see the newest one on the expvar surface and read
// their own Server.Metrics() directly).
var (
	activeMetrics atomic.Pointer[Metrics]
	publishOnce   sync.Once
)

func publishExpvar(m *Metrics) {
	activeMetrics.Store(m)
	publishOnce.Do(func() {
		expvar.Publish("flowserve", expvar.Func(func() any {
			if cur := activeMetrics.Load(); cur != nil {
				return cur.Snapshot()
			}
			return nil
		}))
	})
}
