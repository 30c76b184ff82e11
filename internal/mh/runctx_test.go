package mh

import (
	"context"
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

// TestRunCtxUncancelledBitIdentical: with a background context, RunCtx
// must consume exactly the randomness Run does and emit the identical
// sample stream.
func TestRunCtxUncancelledBitIdentical(t *testing.T) {
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
	got, err := collectRun(t, func(v func(core.PseudoState)) error {
		return sB.RunCtx(context.Background(), opts, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("RunCtx emitted %d samples, Run %d", len(got), len(ref))
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

// TestRunCtxCancelledMidBurnIn: a context cancelled partway through
// burn-in must stop the run with ErrInterrupted wrapping the cause,
// emit no samples, and leave the chain resumable.
func TestRunCtxCancelledMidBurnIn(t *testing.T) {
	m := fixedICM(7)
	opts := Options{BurnIn: 10000, Thin: 10, Samples: 20}
	s, err := NewSampler(m, nil, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the chain via the Interrupt poll points: use a
	// deterministic hook instead of a racy timer.
	polls := 0
	opts.Interrupt = func() bool {
		polls++
		if polls == 5 {
			cancel()
		}
		return false
	}
	samples, err := collectRun(t, func(v func(core.PseudoState)) error {
		return s.RunCtx(ctx, opts, v)
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to wrap context.Canceled", err)
	}
	if len(samples) != 0 {
		t.Fatalf("emitted %d samples despite mid-burn-in cancel", len(samples))
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

// TestRunCtxCancelledMidThinning: cancellation between thinned samples
// stops the run partway through the sampling phase; already-emitted
// samples match the uncancelled stream prefix.
func TestRunCtxCancelledMidThinning(t *testing.T) {
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
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("client went away")
	emitted := 0
	cOpts := opts
	cOpts.Interrupt = func() bool {
		if emitted == 12 {
			cancel(cause)
		}
		return false
	}
	got, err := collectRun(t, func(v func(core.PseudoState)) error {
		return s.RunCtx(ctx, cOpts, func(x core.PseudoState) {
			emitted++
			v(x)
		})
	})
	if !errors.Is(err, ErrInterrupted) || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want ErrInterrupted wrapping the cancel cause", err)
	}
	if len(got) == 0 || len(got) >= opts.Samples {
		t.Fatalf("emitted %d samples, want a strict prefix", len(got))
	}
	for i := range got {
		for e := range got[i] {
			if got[i][e] != ref[i][e] {
				t.Fatalf("cancelled run diverged from reference at sample %d", i)
			}
		}
	}
}

// TestRunCtxCancelledPostCompletion: a context cancelled only after the
// final sample has been emitted must not retroactively fail the run.
func TestRunCtxCancelledPostCompletion(t *testing.T) {
	m := fixedICM(5)
	opts := Options{BurnIn: 50, Thin: 5, Samples: 10}
	s, err := NewSampler(m, nil, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	samples, err := collectRun(t, func(v func(core.PseudoState)) error {
		return s.RunCtx(ctx, opts, func(x core.PseudoState) {
			n++
			if n == opts.Samples {
				// Cancel after the final visit: all poll points are behind us.
				cancel()
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
	// A later run on the now-cancelled context fails immediately.
	if err := s.RunCtx(ctx, opts, func(core.PseudoState) {}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("run on cancelled context = %v, want ErrInterrupted", err)
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
