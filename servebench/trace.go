package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public entry point. Spans live
// in memory until the run ends.
type span struct {
	name   string
	parent int32 // index of the enclosing span, -1 for a root
	id     int64 // request index (served) or replayed batch index
	start  time.Duration
	end    time.Duration
	steps  int // chain steps a mh.Sampler.Step block took
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer records spans from any goroutine.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int32) int32 {
	return t.beginID(name, parent, -1)
}

func (t *tracer) beginID(name string, parent int32, id int64) int32 {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 && id < 0 {
		id = t.spans[parent].id
	}
	t.spans = append(t.spans, span{name: name, parent: parent, id: id, start: now})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent int32, f func()) {
	i := t.begin(name, parent)
	f()
	t.end(i)
}

// coveredBy returns how much of [lo, hi) the intervals cover, counting
// overlaps once.
func coveredBy(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfTimes returns each span's duration minus the part of it its
// direct children cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][][2]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - coveredBy(s.start, s.end, children[i])
	}
	return out
}

// childCoverage returns the share of span i its direct children cover.
func childCoverage(spans []span, i int32) float64 {
	var ivs [][2]time.Duration
	for _, s := range spans {
		if s.parent == i {
			ivs = append(ivs, [2]time.Duration{s.start, s.end})
		}
	}
	d := spans[i].dur()
	if d <= 0 {
		return 1
	}
	return float64(coveredBy(spans[i].start, spans[i].end, ivs)) / float64(d)
}
