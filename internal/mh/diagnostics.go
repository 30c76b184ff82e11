package mh

import (
	"fmt"
	"math"

	"infoflow/internal/core"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// This file provides the convergence diagnostics a production MCMC user
// needs before trusting a chain: autocorrelation, effective sample size
// (Geyer's initial positive sequence estimator), and the Gelman-Rubin
// potential scale reduction factor across independent chains. The paper
// relies on fixed burn-in and thinning; these tools justify those
// settings (and are exercised by the ablation benchmarks comparing the
// weighted and uniform proposals).

// Autocorrelation returns the sample autocorrelation of xs at lags
// 0..maxLag (inclusive). Lag 0 is always 1. For a constant series every
// lag reports 0 correlation beyond lag 0.
func Autocorrelation(xs []float64, maxLag int) []float64 {
	n := len(xs)
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 {
		maxLag = 0
	}
	out := make([]float64, maxLag+1)
	if n == 0 {
		return out
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var c0 float64
	for _, x := range xs {
		d := x - mean
		c0 += d * d
	}
	out[0] = 1
	//flowlint:ignore floatcmp -- exact zero autocovariance means a constant chain, a structural sentinel
	if c0 == 0 {
		return out
	}
	for lag := 1; lag <= maxLag; lag++ {
		var c float64
		for i := 0; i+lag < n; i++ {
			c += (xs[i] - mean) * (xs[i+lag] - mean)
		}
		out[lag] = c / c0
	}
	return out
}

// EffectiveSampleSize estimates the number of independent samples the
// (autocorrelated) series is worth, using Geyer's initial positive
// sequence: sum consecutive autocorrelation pairs until a pair goes
// non-positive. Returns len(xs) for an uncorrelated or constant series.
func EffectiveSampleSize(xs []float64) float64 {
	n := len(xs)
	if n < 4 {
		return float64(n)
	}
	rho := Autocorrelation(xs, n/2)
	sum := 0.0
	for lag := 1; lag+1 < len(rho); lag += 2 {
		pair := rho[lag] + rho[lag+1]
		if pair <= 0 {
			break
		}
		sum += pair
	}
	ess := float64(n) / (1 + 2*sum)
	if ess > float64(n) {
		return float64(n)
	}
	if ess < 1 {
		return 1
	}
	return ess
}

// GelmanRubin returns the potential scale reduction factor R-hat over
// two or more chains of equal length: values near 1 indicate the chains
// have converged to the same distribution. It returns an error for
// fewer than two chains or mismatched lengths.
func GelmanRubin(chains [][]float64) (float64, error) {
	m := len(chains)
	if m < 2 {
		return 0, fmt.Errorf("mh: GelmanRubin needs >= 2 chains")
	}
	n := len(chains[0])
	if n < 2 {
		return 0, fmt.Errorf("mh: GelmanRubin needs chains of length >= 2")
	}
	means := make([]float64, m)
	vars := make([]float64, m)
	grand := 0.0
	for c, chain := range chains {
		if len(chain) != n {
			return 0, fmt.Errorf("mh: GelmanRubin chain %d has length %d, want %d", c, len(chain), n)
		}
		for _, x := range chain {
			means[c] += x
		}
		means[c] /= float64(n)
		for _, x := range chain {
			d := x - means[c]
			vars[c] += d * d
		}
		vars[c] /= float64(n - 1)
		grand += means[c]
	}
	grand /= float64(m)
	var b, w float64
	for c := 0; c < m; c++ {
		d := means[c] - grand
		b += d * d
		w += vars[c]
	}
	b *= float64(n) / float64(m-1)
	w /= float64(m)
	//flowlint:ignore floatcmp -- exact zero within-chain variance means every chain is constant
	if w == 0 {
		// All chains constant: identical constants are perfectly
		// converged, differing constants are maximally diverged.
		//flowlint:ignore floatcmp -- exact zero between-chain variance means the constants coincide
		if b == 0 {
			return 1, nil
		}
		return math.Inf(1), nil
	}
	varPlus := float64(n-1)/float64(n)*w + b/float64(n)
	return math.Sqrt(varPlus / w), nil
}

// FlowDiagnostics is a convergence report for a flow-probability query.
type FlowDiagnostics struct {
	// ChainEstimates is each independent chain's flow estimate.
	ChainEstimates []float64
	// ESS is the pooled effective sample size of the flow indicator
	// series (sum across chains).
	ESS float64
	// RHat is the Gelman-Rubin factor across chains (1 = converged).
	RHat float64
	// AcceptanceRate is the mean proposal acceptance rate over the
	// post-burn-in sampling phase (burn-in proposals are excluded: they
	// probe an un-equilibrated chain and would bias the mixing
	// diagnostic).
	AcceptanceRate float64
}

// Estimate returns the pooled flow estimate.
func (d *FlowDiagnostics) Estimate() float64 {
	if len(d.ChainEstimates) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range d.ChainEstimates {
		sum += p
	}
	return sum / float64(len(d.ChainEstimates))
}

// String implements fmt.Stringer.
func (d *FlowDiagnostics) String() string {
	return fmt.Sprintf("estimate %.4f over %d chains (R-hat %.4f, ESS %.0f, acceptance %.2f)",
		d.Estimate(), len(d.ChainEstimates), d.RHat, d.ESS, d.AcceptanceRate)
}

// DiagnoseFlowProb runs numChains independent Metropolis-Hastings chains
// for the same flow query and reports cross-chain convergence
// diagnostics alongside the pooled estimate.
func DiagnoseFlowProb(m *core.ICM, source, sink graph.NodeID, conds []core.FlowCondition, opts Options, numChains int, r *rng.RNG) (*FlowDiagnostics, error) {
	if numChains < 2 {
		return nil, fmt.Errorf("mh: DiagnoseFlowProb needs >= 2 chains")
	}
	if err := checkFlow(m, source, sink); err != nil {
		return nil, err
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	diag := &FlowDiagnostics{}
	chains := make([][]float64, 0, numChains)
	essSum := 0.0
	accSum := 0.0
	for c := 0; c < numChains; c++ {
		s, err := NewSampler(m, conds, r.Fork())
		if err != nil {
			return nil, err
		}
		series := make([]float64, 0, opts.Samples)
		err = s.Run(opts, func(x core.PseudoState) {
			v := 0.0
			if m.HasFlowScratch(source, sink, x, s.scratch) {
				v = 1
			}
			series = append(series, v)
		})
		if err != nil {
			return nil, err
		}
		chains = append(chains, series)
		est := 0.0
		for _, v := range series {
			est += v
		}
		diag.ChainEstimates = append(diag.ChainEstimates, est/float64(len(series)))
		essSum += EffectiveSampleSize(series)
		accSum += s.PostBurnInAcceptanceRate()
	}
	diag.ESS = essSum
	diag.AcceptanceRate = accSum / float64(numChains)
	rhat, err := GelmanRubin(chains)
	if err != nil {
		return nil, err
	}
	diag.RHat = rhat
	return diag, nil
}
