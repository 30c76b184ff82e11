package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// report accumulates one run's measurements and renders its output.
type report struct {
	cfg            config
	spec           workloadSpec
	record         runRecord
	setupS         float64 // CPU seconds
	setupWallS     float64
	wallThroughput float64        // req/s over the wall clock, steal included
	phases         []*phaseResult // [untraced] or [untraced, traced]
	tracer         *tracer
	mismatches     int
	faults         []string          // why the run is wrong, besides mismatched answers
	layers         map[string]metric // per-layer metrics of a traced run
	stderr         io.Writer
	env            *environment

	Correct   bool
	attempted int
	failed    int
	e2e       map[string]metric
	endpoints map[string]endpointStats
}

// endpointStats is one endpoint's latency record in the untraced phase.
type endpointStats struct {
	Count     int     `json:"count"`
	P50Ms     float64 `json:"p50_ms"`
	TailMs    float64 `json:"tail_ms,omitempty"`
	TailPct   float64 `json:"tail_pct,omitempty"`
	TailCount int     `json:"tail_beyond,omitempty"`
}

func newReport(cfg config, spec workloadSpec) *report {
	return &report{cfg: cfg, spec: spec, record: newRunRecord(cfg), layers: map[string]metric{}}
}

// fault marks the run wrong for a reason other than a mismatched
// answer.
func (r *report) fault(format string, args ...any) {
	r.faults = append(r.faults, fmt.Sprintf(format, args...))
	r.Correct = false
}

// exitCode reports why a wrong run is wrong and returns the command's
// exit code: 0 only when every answer was a correct 200.
func (r *report) exitCode(stderr io.Writer) int {
	if r.Correct {
		return 0
	}
	if r.mismatches > 0 {
		fmt.Fprintf(stderr, "servebench: %d answers differ from the library\n", r.mismatches)
	}
	for _, f := range r.faults {
		fmt.Fprintf(stderr, "servebench: %s\n", f)
	}
	return 1
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the untraced phase's 200-answer latencies by
// endpoint, in milliseconds.
func latencies(ph *phaseResult) [numEndpoints][]float64 {
	var out [numEndpoints][]float64
	for _, o := range ph.outcomes {
		if o.status == http.StatusOK {
			out[o.req.ep] = append(out[o.req.ep], ms(o.latency()))
		}
	}
	return out
}

func answeredCount(ph *phaseResult) int {
	n := 0
	for _, o := range ph.outcomes {
		if o.status == http.StatusOK {
			n++
		}
	}
	return n
}

// finish derives the end-to-end metrics from the untraced phase. No
// workload expects a status other than 200, so any makes the run
// wrong: a failing endpoint must not read as a faster one.
func (r *report) finish() {
	var first *outcome
	for _, ph := range r.phases {
		r.attempted += len(ph.outcomes)
		r.failed += len(ph.outcomes) - answeredCount(ph)
		for _, o := range ph.outcomes {
			if first == nil && o.status != http.StatusOK {
				first = o
			}
		}
	}
	if first != nil {
		r.fault("%d of %d requests were not answered with 200; first: %s: status %d: %.200s",
			r.failed, r.attempted, first.req.url, first.status, first.body)
	}
	ph := r.phases[0]
	ok := answeredCount(ph)
	lat := latencies(ph)
	r.endpoints = map[string]endpointStats{}
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		if len(lat[ep]) == 0 {
			continue
		}
		s := summarize(lat[ep])
		st := endpointStats{Count: s.n, P50Ms: s.p50}
		if s.hasTail {
			st.TailMs, st.TailPct, st.TailCount = s.tail, s.tailQ*100, s.n-rankOf(s.tailQ, s.n)
		}
		r.endpoints[ep.String()] = st
	}
	// Throughput and lead latency count only the share of the timed phase
	// the VM ran: on a shared host the hypervisor's steal stretches wall
	// time by up to a third, run to run, whatever the code does
	// (README.md). The wall-clock figures are printed beside them.
	ran := 1 - ph.steal
	r.wallThroughput = float64(ok) / ph.wall().Seconds()
	r.e2e = map[string]metric{
		"setup_s":        {r.setupS, "s"},
		"throughput_rps": {r.wallThroughput / ran, "req/s"},
		"cpu_ms_per_req": {ms(ph.cpu) / float64(max(ok, 1)), "ms"},
		"peak_rss_mb":    {float64(ph.peakRSS) / (1 << 20), "MB"},
	}
	// Other endpoints' p50s and all tails are reported above and in the
	// record line but not as metrics: with tens of pages a run, they move
	// more between runs than any bound could allow (see README.md).
	lead, found := r.endpoints[r.spec.lead.String()]
	if !found {
		r.fault("no %s request was answered with 200", r.spec.lead)
	}
	r.e2e["lead_p50_ms"] = metric{lead.P50Ms * ran, "ms"}
	r.layers["error_ratio"] = metric{float64(r.failed) / float64(max(r.attempted, 1)), "ratio"}
}

// print writes the human-readable report, the run record and, last,
// the result line.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "servebench %s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace,
		r.record.NumCPU, r.record.GOMAXPROCS, r.record.GoVersion, r.record.Commit)
	// Per-endpoint latency and the error ratio: printed, not gated (see
	// README.md).
	for _, name := range endpointNames {
		st, ok := r.endpoints[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-18s %12.4f ms  n=%d\n", name+"_p50_ms", st.P50Ms, st.Count)
		if st.TailPct > 0 {
			fmt.Fprintf(w, "  %-18s %12.4f ms  p%g, %d of %d beyond\n", name+"_tail_ms", st.TailMs, st.TailPct, st.TailCount, st.Count)
		} else {
			fmt.Fprintf(w, "  %-18s n/a (under 100 samples)\n", name+"_tail_ms")
		}
	}
	fmt.Fprintf(w, "  %-18s %12.4f ratio  %d of %d failed\n", "error_ratio", r.layers["error_ratio"].Value, r.failed, r.attempted)
	d := r.phases[0].after.sub(r.phases[0].before)
	fmt.Fprintf(w, "  server: batches=%d batched_requests=%d lanes=%d cache_hits=%d misses=%d rejected=%d timeouts=%d wall=%.2fs cpu=%.2fs host_steal=%.1f%%\n",
		d.batches, d.batchedRequests, d.batchedLanes, d.hits, d.misses, d.rejected, d.timeouts,
		r.phases[0].wall().Seconds(), r.phases[0].cpu.Seconds(), 100*r.phases[0].steal)
	fmt.Fprintf(w, "  set-up (median of %d): cpu=%.4fs wall=%.4fs\n", setupReps, r.setupS, r.setupWallS)
	fmt.Fprintf(w, "  wall clock, steal included: throughput=%.4f req/s %s_p50=%.4f ms\n",
		r.wallThroughput, r.spec.lead, r.endpoints[r.spec.lead.String()].P50Ms)
	var est [numEndpoints]float64
	for _, o := range r.phases[0].outcomes {
		var resp response
		if json.Unmarshal(o.body, &resp) == nil && resp.BatchSize > 0 {
			est[o.req.ep] += 1 / float64(resp.BatchSize)
		}
	}
	fmt.Fprintf(w, "  batches by kind: flow=%.1f community=%.1f impact=%.1f\n", est[epFlow], est[epCommunity], est[epImpact])
	for _, k := range sortedKeys(r.e2e) {
		fmt.Fprintf(w, "  %-16s %14.4f %s\n", k, r.e2e[k].Value, r.e2e[k].Unit)
	}
	if r.cfg.trace {
		for _, k := range sortedKeys(r.layers) {
			fmt.Fprintf(w, "  %-26s %14.4f %s\n", k, r.layers[k].Value, r.layers[k].Unit)
		}
	}
	rec := struct {
		runRecord
		Endpoints  map[string]endpointStats `json:"endpoints"`
		Attempted  int                      `json:"attempted"`
		Failed     int                      `json:"failed"`
		SetupWallS float64                  `json:"setup_wall_s"`
		WallRPS    float64                  `json:"throughput_wall_rps"`
		HostSteal  float64                  `json:"host_steal"`
	}{r.record, r.endpoints, r.attempted, r.failed, r.setupWallS, r.wallThroughput, r.phases[0].steal}
	b, _ := json.Marshal(rec)
	fmt.Fprintf(w, "record %s\n", b)
	metrics := r.e2e
	if r.cfg.trace {
		metrics = r.layers
	}
	writeResult(w, resultLine{Correct: r.Correct, Attempted: r.attempted, Failed: r.failed, Metrics: metrics})
}
