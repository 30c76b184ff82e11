package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"infoflow/internal/serve"
)

// outcome is one served request as the client saw it.
type outcome struct {
	req    *request
	due    time.Time // when the client meant to send it: when its page (or the page's follow-up half) started, else its issue time
	issued time.Time
	done   time.Time
	status int
	body   []byte
}

func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// harness drives a server's handler in-process: no sockets, every
// request in flight is a goroutine calling ServeHTTP.
type harness struct {
	srv     *serve.Server
	handler http.Handler
	tr      *tracer // nil in untraced phases
	reqs    atomic.Int64
}

// call serves q, timing it from due (zero = from the call itself).
func (h *harness) call(q *request, due time.Time, o *outcome) {
	o.req = q
	o.issued = time.Now()
	o.due = due
	if due.IsZero() {
		o.due = o.issued
	}
	r := httptest.NewRequest(http.MethodGet, q.url, nil)
	rec := httptest.NewRecorder()
	if h.tr != nil {
		span := h.tr.beginID("serve.ServeHTTP", -1, h.reqs.Add(1))
		defer h.tr.end(span)
	}
	h.handler.ServeHTTP(rec, r)
	o.done = time.Now()
	o.status = rec.Code
	o.body = rec.Body.Bytes()
}

// loopFunc drives one timed phase from start until its deadline and
// returns every request it issued.
type loopFunc func(h *harness, start, deadline time.Time) []*outcome

// phaseResult is what one timed phase measured.
type phaseResult struct {
	outcomes []*outcome
	start    time.Time
	end      time.Time
	cpu      time.Duration // process user+sys over the phase
	peakRSS  int64         // bytes
	queueMax int           // highest sampled QueueDepth
	steal    float64       // share of the machine's CPU time the hypervisor gave to other guests
	before   serverCounters
	after    serverCounters
}

func (p *phaseResult) wall() time.Duration { return p.end.Sub(p.start) }

// runPhase runs one workload loop for seconds, sampling resident memory
// and the server's queue depth alongside it.
func runPhase(h *harness, seconds float64, loop loopFunc) *phaseResult {
	res := &phaseResult{before: snapshotCounters(h.srv)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak int64
	var qmax int
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if rss := residentBytes(); rss > peak {
				peak = rss
			}
			if d := h.srv.Metrics().QueueDepth(); d > qmax {
				qmax = d
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	steal0, total0 := hostTicks()
	cpu0 := processCPU()
	res.start = time.Now()
	deadline := res.start.Add(time.Duration(seconds * float64(time.Second)))
	res.outcomes = loop(h, res.start, deadline)
	res.end = time.Now()
	res.cpu = processCPU() - cpu0
	steal1, total1 := hostTicks()
	res.steal = ratio(float64(steal1-steal0), float64(total1-total0))
	close(stop)
	wg.Wait()
	res.peakRSS, res.queueMax = peak, qmax
	res.after = snapshotCounters(h.srv)
	return res
}

// closedPages issues one page at a time until the deadline passes: the
// page's requests at once, and its follow-up requests followGap later.
// Latency counts from when the page (or its follow-up half) started,
// so it includes the lag of issuing many goroutines at once.
func closedPages(next func() page) loopFunc {
	return func(h *harness, start, deadline time.Time) []*outcome {
		var all []*outcome
		for time.Now().Before(deadline) {
			p := next()
			outs := make([]*outcome, len(p.reqs))
			var wg sync.WaitGroup
			due := time.Now()
			for i := range p.reqs {
				if i > 0 && i == p.follow {
					time.Sleep(followGap)
					due = time.Now()
				}
				outs[i] = &outcome{}
				wg.Add(1)
				go func(i int, due time.Time) {
					defer wg.Done()
					h.call(&p.reqs[i], due, outs[i])
				}(i, due)
			}
			wg.Wait()
			all = append(all, outs...)
		}
		return all
	}
}

// closedCallers runs callers goroutines, each issuing its own request
// sequence one at a time until the deadline passes.
func closedCallers(callers int, next func(caller int) func() request) loopFunc {
	return func(h *harness, start, deadline time.Time) []*outcome {
		per := make([][]*outcome, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			gen := next(c)
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					q := gen()
					o := &outcome{}
					h.call(&q, time.Time{}, o)
					per[c] = append(per[c], o)
				}
			}(c)
		}
		wg.Wait()
		var all []*outcome
		for _, outs := range per {
			all = append(all, outs...)
		}
		return all
	}
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentBytes reads the process's current resident set size.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	var pages int64
	for _, c := range f[1] {
		pages = pages*10 + int64(c-'0')
	}
	return pages * int64(os.Getpagesize())
}

// hostTicks reads the machine-wide CPU counters in /proc/stat: ticks
// stolen by the hypervisor for other guests, and all ticks. The line is
// "cpu user nice system idle iowait irq softirq steal guest guest_nice";
// guest time is already counted in user and nice.
func hostTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		n, _ := strconv.ParseInt(string(f[i]), 10, 64)
		total += n
		if i == 8 {
			steal = n
		}
	}
	return steal, total
}

// serverCounters is the subset of serve.Metrics the benchmark reads as
// deltas around a phase.
type serverCounters struct {
	batches, batchedLanes, batchedRequests int64
	hits, misses                           int64
	rejected, timeouts                     int64
	replays, repairs, rebuilds             int64
}

func snapshotCounters(s *serve.Server) serverCounters {
	m := s.Metrics()
	return serverCounters{
		batches: m.Batches.Load(), batchedLanes: m.BatchedLanes.Load(), batchedRequests: m.BatchedRequests.Load(),
		hits: m.CacheHits.Load(), misses: m.CacheMisses.Load(),
		rejected: m.Rejected.Load(), timeouts: m.Timeouts.Load(),
		replays: m.LaneReplays.Load(), repairs: m.LaneRepairs.Load(), rebuilds: m.LaneRebuilds.Load(),
	}
}

func (a serverCounters) sub(b serverCounters) serverCounters {
	return serverCounters{
		batches: a.batches - b.batches, batchedLanes: a.batchedLanes - b.batchedLanes,
		batchedRequests: a.batchedRequests - b.batchedRequests,
		hits:            a.hits - b.hits, misses: a.misses - b.misses,
		rejected: a.rejected - b.rejected, timeouts: a.timeouts - b.timeouts,
		replays: a.replays - b.replays, repairs: a.repairs - b.repairs, rebuilds: a.rebuilds - b.rebuilds,
	}
}
