package unattrib

import (
	"fmt"
	"math"

	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// SaitoOptions configures the EM estimators.
type SaitoOptions struct {
	MaxIter int
	Tol     float64 // L-infinity convergence tolerance on the estimates
}

// DefaultSaitoOptions matches the paper's Figure 11 setting of a fixed
// 200-iteration budget with early exit on convergence.
func DefaultSaitoOptions() SaitoOptions {
	return SaitoOptions{MaxIter: 200, Tol: 1e-9}
}

// SaitoRelaxed runs the paper's Appendix modification of Saito et al.'s
// expectation-maximization on an evidence summary: activation-time
// adjacency is relaxed to "implicated parents were active before the
// child", and the evidence is the summarised (characteristic, count,
// leaks) table. Starting from init (one value per local parent; values
// must lie in (0,1)), it iterates
//
//	E: P_J = 1 - prod_{v in J}(1 - k_v)
//	M: k_v = [ sum_{J: v in J} L_J * k_v / P_J ] / [ sum_{J: v in J} n_J ]
//
// until convergence, returning the point estimates and the iteration
// count. EM converges to a local maximum of the likelihood; the Figure 11
// experiment shows the Table II summary has several.
func SaitoRelaxed(s *Summary, init []float64, opts SaitoOptions) ([]float64, int, error) {
	rows := make([]emRow, len(s.Rows))
	for i, r := range s.Rows {
		rows[i] = emRow{implicated: r.Set, tried: r.Set, leaks: r.Leaks, trials: r.Count}
	}
	return saitoEM(len(s.Parents), rows, init, opts)
}

// emRow is one unit of EM evidence: the implicated parents explain leaks
// of the sink's activations, and the edges of the tried parents were
// tried trials times. A summary row implicates and tries its
// characteristic; a SaitoOriginal trace is one trial.
type emRow struct {
	implicated, tried CharBits
	leaks, trials     int
}

// saitoEM is the one E/M fixed point behind both estimators: SaitoRelaxed's
// update with J and L_J ranging over the rows' implicated sets and leaks,
// and each parent's denominator summing the trials of the rows that try
// it. It checks the arguments for both. A parent with no trials keeps
// its initial value.
func saitoEM(n int, rows []emRow, init []float64, opts SaitoOptions) ([]float64, int, error) {
	if len(init) != n {
		return nil, 0, fmt.Errorf("unattrib: init length %d for %d parents", len(init), n)
	}
	if opts.MaxIter <= 0 {
		return nil, 0, fmt.Errorf("unattrib: non-positive MaxIter")
	}
	k := make([]float64, n)
	for j, v := range init {
		if v <= 0 || v >= 1 {
			return nil, 0, fmt.Errorf("unattrib: init[%d]=%v outside (0,1)", j, v)
		}
		k[j] = v
	}
	// Denominators are constant: the trials of each parent's edge.
	denom := make([]float64, n)
	for _, r := range rows {
		for j := 0; j < n; j++ {
			if r.tried.Has(j) {
				denom[j] += float64(r.trials)
			}
		}
	}
	next := make([]float64, n)
	iter := 0
	for ; iter < opts.MaxIter; iter++ {
		for j := range next {
			next[j] = 0
		}
		for _, r := range rows {
			if r.leaks == 0 {
				continue
			}
			pJ := jointProb(r.implicated, k)
			if pJ <= 0 {
				continue // no active parent can explain the leak yet
			}
			for j := 0; j < n; j++ {
				if r.implicated.Has(j) {
					next[j] += float64(r.leaks) * k[j] / pJ
				}
			}
		}
		maxDelta := 0.0
		for j := 0; j < n; j++ {
			var v float64
			if denom[j] > 0 {
				v = next[j] / denom[j]
			} else {
				v = k[j] // no evidence: parameter retains its value
			}
			if d := math.Abs(v - k[j]); d > maxDelta {
				maxDelta = d
			}
			k[j] = v
		}
		if maxDelta < opts.Tol {
			iter++
			break
		}
	}
	return k, iter, nil
}

// SaitoRelaxedRestarts runs SaitoRelaxed from uniformly random
// initialisations and returns every converged solution, one per restart —
// the procedure behind Figure 11(a).
func SaitoRelaxedRestarts(s *Summary, restarts int, opts SaitoOptions, r *rng.RNG) ([][]float64, error) {
	out := make([][]float64, 0, restarts)
	for t := 0; t < restarts; t++ {
		init := make([]float64, len(s.Parents))
		for j := range init {
			init[j] = r.Uniform(0.01, 0.99)
		}
		k, _, err := SaitoRelaxed(s, init, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// SaitoOriginal is Saito et al.'s original discrete-time EM: a parent v
// is implicated in child w's activation only if v was active at exactly
// t_w - 1, and an observation of v active at time t with w not active at
// t+1 counts as a failed trial of edge (v, w). It consumes raw traces
// (not summaries, which discard timing) for the edges into one sink.
//
// The estimates are indexed by the parents slice. As for SaitoRelaxed,
// init holds one value per parent, each in (0,1). Parents never active in
// any trace keep their initial value.
func SaitoOriginal(sink graph.NodeID, parents []graph.NodeID, traces []Trace, init []float64, opts SaitoOptions) ([]float64, int, error) {
	// One row per trace in which some parent's trial happened: the
	// parents active at exactly t_sink - 1 are implicated (and leak once
	// if the sink activated), and every active parent that was not
	// followed at its next step counts a failed trial.
	rows := make([]emRow, 0, len(traces))
	for _, tr := range traces {
		row := emRow{trials: 1}
		tSink, sinkActive := tr[sink]
		for j, p := range parents {
			tp, ok := tr[p]
			if !ok {
				continue
			}
			if sinkActive {
				if tp == tSink-1 {
					row.implicated = row.implicated.With(j)
					row.tried = row.tried.With(j)
				} else if tp < tSink-1 {
					// Active earlier but sink did not activate at tp+1:
					// that trial failed.
					row.tried = row.tried.With(j)
				}
			} else {
				row.tried = row.tried.With(j)
			}
		}
		if row.implicated != 0 {
			row.leaks = 1
		}
		if row.tried != 0 {
			rows = append(rows, row)
		}
	}
	return saitoEM(len(parents), rows, init, opts)
}
