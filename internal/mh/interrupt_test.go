package mh

import (
	"errors"
	"testing"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// fixedICM builds a deterministic mid-size model for the run-control
// tests: enough edges that burn-in and thinning each span many steps.
func fixedICM(seed uint64) *core.ICM {
	r := rng.New(seed)
	g := graph.Random(r, 30, 120)
	p := make([]float64, g.NumEdges())
	for i := range p {
		p[i] = 0.2 + 0.6*r.Float64()
	}
	return core.MustNewICM(g, p)
}

// collectRun drives fn and returns the emitted sample states (copied).
func collectRun(t *testing.T, fn func(visit func(core.PseudoState)) error) ([]core.PseudoState, error) {
	t.Helper()
	var out []core.PseudoState
	err := fn(func(x core.PseudoState) {
		cp := make(core.PseudoState, len(x))
		copy(cp, x)
		out = append(out, cp)
	})
	return out, err
}

// TestInterruptUnfiredBitIdentical: an Interrupt hook that never fires
// is polled every Thin steps of burn-in and after every thinned sample,
// consumes no randomness, and leaves the sample stream of a run without
// it.
func TestInterruptUnfiredBitIdentical(t *testing.T) {
	m := fixedICM(7)
	opts := Options{BurnIn: 200, Thin: 13, Samples: 40}

	sA, err := NewSampler(m, nil, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := collectRun(t, func(v func(core.PseudoState)) error { return sA.Run(opts, v) })
	if err != nil {
		t.Fatal(err)
	}

	sB, err := NewSampler(m, nil, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	hooked := opts
	hooked.Interrupt = func() bool { polls++; return false }
	got, err := collectRun(t, func(v func(core.PseudoState)) error { return sB.Run(hooked, v) })
	if err != nil {
		t.Fatal(err)
	}
	if want := (opts.BurnIn+opts.Thin-1)/opts.Thin + opts.Samples; polls != want {
		t.Errorf("hook polled %d times, want %d", polls, want)
	}
	if len(got) != len(ref) {
		t.Fatalf("hooked run emitted %d samples, plain run %d", len(got), len(ref))
	}
	for i := range ref {
		for e := range ref[i] {
			if got[i][e] != ref[i][e] {
				t.Fatalf("sample %d differs at edge %d", i, e)
			}
		}
	}
	if sA.Steps() != sB.Steps() {
		t.Fatalf("step counts differ: %d vs %d", sA.Steps(), sB.Steps())
	}
}

// TestInterruptMidBurnIn: a hook that fires partway through burn-in
// stops the run with ErrInterrupted, emits no samples, and leaves the
// chain resumable.
func TestInterruptMidBurnIn(t *testing.T) {
	m := fixedICM(7)
	opts := Options{BurnIn: 10000, Thin: 10, Samples: 20}
	s, err := NewSampler(m, nil, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	opts.Interrupt = func() bool {
		polls++
		return polls == 5
	}
	samples, err := collectRun(t, func(v func(core.PseudoState)) error { return s.Run(opts, v) })
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if len(samples) != 0 {
		t.Fatalf("emitted %d samples despite a mid-burn-in stop", len(samples))
	}
	if s.Steps() >= int64(opts.BurnIn) {
		t.Fatalf("ran %d steps, should have stopped inside burn-in", s.Steps())
	}

	// The chain must be valid and resumable: a fresh uninterrupted run
	// on the same sampler completes normally.
	opts.Interrupt = nil
	resumed, err := collectRun(t, func(v func(core.PseudoState)) error { return s.Run(opts, v) })
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != opts.Samples {
		t.Fatalf("resumed run emitted %d samples, want %d", len(resumed), opts.Samples)
	}
	for _, x := range resumed {
		for e, p := range m.P {
			if active := x.Test(e); active && p == 0 || !active && p == 1 {
				t.Fatal("resumed chain reached an impossible state")
			}
		}
	}
}

// TestInterruptMidThinning: a hook that fires between thinned samples
// stops the run partway through the sampling phase, and the samples
// already emitted are the uninterrupted stream's prefix.
func TestInterruptMidThinning(t *testing.T) {
	m := fixedICM(11)
	opts := Options{BurnIn: 100, Thin: 7, Samples: 50}

	sRef, err := NewSampler(m, nil, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := collectRun(t, func(v func(core.PseudoState)) error { return sRef.Run(opts, v) })
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSampler(m, nil, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	cOpts := opts
	cOpts.Interrupt = func() bool { return emitted == 12 }
	got, err := collectRun(t, func(v func(core.PseudoState)) error {
		return s.Run(cOpts, func(x core.PseudoState) {
			emitted++
			v(x)
		})
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if len(got) != 12 {
		t.Fatalf("emitted %d samples, want the 12 before the hook fired", len(got))
	}
	for i := range got {
		for e := range got[i] {
			if got[i][e] != ref[i][e] {
				t.Fatalf("interrupted run diverged from reference at sample %d", i)
			}
		}
	}
}

// TestInterruptAfterLastSample: a hook that starts firing only after
// the final sample has been emitted does not retroactively fail the
// run, and a later run under it stops at its first poll.
func TestInterruptAfterLastSample(t *testing.T) {
	m := fixedICM(5)
	opts := Options{BurnIn: 50, Thin: 5, Samples: 10}
	s, err := NewSampler(m, nil, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	stop := false
	opts.Interrupt = func() bool { return stop }
	n := 0
	samples, err := collectRun(t, func(v func(core.PseudoState)) error {
		return s.Run(opts, func(x core.PseudoState) {
			n++
			if n == opts.Samples {
				// Fire after the final visit: all poll points are behind us.
				stop = true
			}
			v(x)
		})
	})
	if err != nil {
		t.Fatalf("completed run reported %v", err)
	}
	if len(samples) != opts.Samples {
		t.Fatalf("emitted %d samples, want %d", len(samples), opts.Samples)
	}
	steps := s.Steps()
	if err := s.Run(opts, func(core.PseudoState) {}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("run under a fired hook = %v, want ErrInterrupted", err)
	}
	if got := s.Steps() - steps; got != int64(opts.Thin) {
		t.Errorf("run under a fired hook took %d steps, want one poll's %d", got, opts.Thin)
	}
}

// TestInterruptHookStopsBatchEstimators: the Options cancel hook is
// honoured by the batched estimators (the serving layer's path).
func TestInterruptHookStopsBatchEstimators(t *testing.T) {
	m := fixedICM(13)
	opts := DefaultOptions(m.NumEdges())
	opts.Samples = 500
	pairs := []FlowPair{{Source: 0, Sink: 1}, {Source: 2, Sink: 3}}

	polls := 0
	opts.Interrupt = func() bool {
		polls++
		return polls > 40
	}
	if _, err := FlowProbBatch(m, pairs, nil, opts, rng.New(2)); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("FlowProbBatch err = %v, want ErrInterrupted", err)
	}
	polls = 0
	if _, err := CommunityFlowProbsBatch(m, []graph.NodeID{0, 1}, nil, opts, rng.New(2)); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("CommunityFlowProbsBatch err = %v, want ErrInterrupted", err)
	}
	polls = 0
	if _, err := FlowProb(m, 0, 1, nil, opts, rng.New(2)); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("FlowProb err = %v, want ErrInterrupted", err)
	}
}

// TestPostBurnInCounters is the counter-hygiene regression: lifetime
// counters blend burn-in and every prior run, so diagnostics must read
// the post-burn-in window instead.
func TestPostBurnInCounters(t *testing.T) {
	m := fixedICM(17)
	opts := Options{BurnIn: 1000, Thin: 3, Samples: 30}
	s, err := NewSampler(m, nil, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(opts, func(core.PseudoState) {}); err != nil {
		t.Fatal(err)
	}
	wantWin := int64(opts.Thin * opts.Samples)
	if s.PostBurnInSteps() != wantWin {
		t.Fatalf("post-burn-in steps = %d, want %d", s.PostBurnInSteps(), wantWin)
	}
	if s.Steps() != int64(opts.BurnIn)+wantWin {
		t.Fatalf("lifetime steps = %d, want %d", s.Steps(), int64(opts.BurnIn)+wantWin)
	}

	// A second run must report ONLY its own sampling phase: the window
	// never accumulates across runs, while lifetime counters do.
	if err := s.Run(opts, func(core.PseudoState) {}); err != nil {
		t.Fatal(err)
	}
	if s.PostBurnInSteps() != wantWin {
		t.Fatalf("after second run, post-burn-in steps = %d, want %d (no blending)", s.PostBurnInSteps(), wantWin)
	}
	if s.Steps() != 2*(int64(opts.BurnIn)+wantWin) {
		t.Fatalf("lifetime steps = %d after two runs", s.Steps())
	}
	if rate := s.PostBurnInAcceptanceRate(); rate <= 0 || rate > 1 {
		t.Fatalf("post-burn-in acceptance = %v", rate)
	}

	// ResetCounters zeroes the window only.
	s.ResetCounters()
	if s.PostBurnInSteps() != 0 || s.PostBurnInAcceptanceRate() != 0 {
		t.Fatal("ResetCounters left a non-empty window")
	}
	if s.Steps() == 0 {
		t.Fatal("ResetCounters must not clear lifetime counters")
	}
}

// TestDiagnosticsUsePostBurnInRate: DiagnoseFlowProb's reported
// acceptance rate equals the chains' post-burn-in rate, not the
// burn-in-blended lifetime rate.
func TestDiagnosticsUsePostBurnInRate(t *testing.T) {
	m := fixedICM(23)
	opts := Options{BurnIn: 2000, Thin: 5, Samples: 100}
	diag, err := DiagnoseFlowProb(m, 0, 1, nil, opts, 2, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if diag.AcceptanceRate <= 0 || diag.AcceptanceRate > 1 {
		t.Fatalf("acceptance = %v", diag.AcceptanceRate)
	}
	// Reconstruct both rates from identically-seeded chains and check
	// the diagnostic matches the post-burn-in one exactly.
	seeder := rng.New(4)
	var lifetime, window float64
	for c := 0; c < 2; c++ {
		s, err := NewSampler(m, nil, seeder.Fork())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(opts, func(core.PseudoState) {}); err != nil {
			t.Fatal(err)
		}
		lifetime += s.AcceptanceRate()
		window += s.PostBurnInAcceptanceRate()
	}
	lifetime /= 2
	window /= 2
	if diag.AcceptanceRate != window {
		t.Fatalf("diagnostic rate %v != post-burn-in rate %v", diag.AcceptanceRate, window)
	}
	if diag.AcceptanceRate == lifetime {
		t.Fatal("diagnostic rate still equals the burn-in-blended lifetime rate")
	}
}
