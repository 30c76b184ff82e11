package bucket

import (
	"fmt"
	"math"
	"strings"
)

// Report is a bucket experiment as the paper's figures print it: the
// calibration analysis and the Table III measures over all pairs and
// over middle values.
type Report struct {
	Analysis *Result
	All      Metrics
	// Middle is zero-valued when every estimate is exactly 0 or 1: legal,
	// if unexpected.
	Middle Metrics
}

// Report analyses the experiment into nBins bins and computes the
// Table III measures.
func (e *Experiment) Report(nBins int) (Report, error) {
	analysis, err := e.Analyze(nBins)
	if err != nil {
		return Report{}, err
	}
	all, err := e.Compute()
	if err != nil {
		return Report{}, err
	}
	middle, _ := e.ComputeMiddle() // zero-valued when there are no middle values
	return Report{Analysis: analysis, All: all, Middle: middle}, nil
}

// String renders the calibration table followed by the measures line.
func (r Report) String() string { return r.Analysis.String() + r.Measures() }

// Measures renders the Table III measures line: normalised likelihood
// and Brier score over all pairs, each with its middle-value figure.
func (r Report) Measures() string {
	return fmt.Sprintf("normalised likelihood: %.6f (middle %.6f), Brier: %.6f (middle %.6f)\n",
		r.All.NormalisedLikelihood, r.Middle.NormalisedLikelihood, r.All.Brier, r.Middle.Brier)
}

// String renders the analysis as a fixed-width table mirroring the
// information in the paper's calibration figures: per-bin mean estimate,
// empirical mean with its 95% interval, volumes, and the in-interval
// marker ("x" for the paper's cross = inside, "o" for dot = outside).
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s %9s %9s %19s %8s %8s  %s\n",
		"bin", "est.mean", "emp.mean", "95% CI", "count", "pos", "in")
	for _, bin := range r.Bins {
		if bin.Count == 0 {
			continue
		}
		mark := "o"
		if bin.InCI {
			mark = "x"
		}
		fmt.Fprintf(&b, "[%.3f,%.3f) %9.4f %9.4f [%8.4f,%8.4f] %8d %8d  %s\n",
			bin.Lo, bin.Hi, bin.MeanEstimate, bin.Empirical.Mean(),
			bin.CILo, bin.CIHi, bin.Count, bin.Positives, mark)
	}
	fmt.Fprintf(&b, "coverage: %.3f over %d non-empty bins\n", r.Coverage, r.NonEmpty)
	return b.String()
}

// VolumePlot renders the companion volume chart (the right/bottom plots
// of Figures 1, 2, 8, 9): per bin, the number of estimates and how many
// were positive flows, on a log-scaled ASCII bar.
func (r *Result) VolumePlot() string {
	var b strings.Builder
	maxCount := 1
	for _, bin := range r.Bins {
		if bin.Count > maxCount {
			maxCount = bin.Count
		}
	}
	scale := func(n int) int {
		if n <= 0 {
			return 0
		}
		// Log-scaled to 40 columns, min 1 for non-zero.
		w := int(40 * log2(float64(n+1)) / log2(float64(maxCount+1)))
		if w < 1 {
			w = 1
		}
		return w
	}
	fmt.Fprintf(&b, "%-13s %8s %8s  %s\n", "bin", "count", "pos", "volume (#) / positives (+), log scale")
	for _, bin := range r.Bins {
		if bin.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "[%.3f,%.3f) %8d %8d  %s\n", bin.Lo, bin.Hi, bin.Count, bin.Positives,
			strings.Repeat("#", scale(bin.Count))+"\n"+strings.Repeat(" ", 33)+strings.Repeat("+", scale(bin.Positives)))
	}
	return b.String()
}

func log2(x float64) float64 { return math.Log2(x) }
