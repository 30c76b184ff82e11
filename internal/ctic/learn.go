package ctic

import (
	"fmt"
	"math"

	"infoflow/internal/dist"
	"infoflow/internal/graph"
	"infoflow/internal/rng"
)

// LearnOptions configures the Bayesian learner.
type LearnOptions struct {
	BurnIn  int     // discarded whole-vector sweeps
	Thin    int     // sweeps between retained samples
	Samples int     // retained posterior samples
	StepK   float64 // random-walk width on transmission probabilities
	StepR   float64 // multiplicative random-walk width on rates (log space)
	// PriorK is the beta prior on each transmission probability.
	PriorK dist.Beta
	// PriorRShape/PriorRScale give a gamma prior on each rate.
	PriorRShape, PriorRScale float64
}

// DefaultLearnOptions mixes well on per-sink problems with a handful of
// parents.
func DefaultLearnOptions() LearnOptions {
	return LearnOptions{
		BurnIn: 600, Thin: 5, Samples: 2000,
		StepK: 0.08, StepR: 0.25,
		PriorK:      dist.Uniform(),
		PriorRShape: 1.5, PriorRScale: 2,
	}
}

func (o LearnOptions) validate() error {
	if o.BurnIn < 0 || o.Thin <= 0 || o.Samples <= 0 || o.StepK <= 0 || o.StepR <= 0 {
		return fmt.Errorf("ctic: invalid options %+v", o)
	}
	if o.PriorRShape <= 0 || o.PriorRScale <= 0 {
		return fmt.Errorf("ctic: invalid rate prior %+v", o)
	}
	return nil
}

// Posterior is the learner's output for one sink: per-parent samples and
// summaries of both the transmission probabilities and the delay rates.
type Posterior struct {
	Parents []graph.NodeID
	// KSamples[i][j] and RSamples[i][j] are the i-th retained sample.
	KSamples, RSamples [][]float64
	KMean, KStd        []float64
	RMean, RStd        []float64
	AcceptanceRate     float64
}

// Learn runs Metropolis-Hastings over one sink's (k, r) parameters under
// the continuous-time likelihood: per step, one uniformly chosen
// coordinate of one parameter block moves (gaussian walk for k, log-space
// walk for r); a sweep is 2*len(parents) steps.
func Learn(sink graph.NodeID, parents []graph.NodeID, eps []Episode, opts LearnOptions, r *rng.RNG) (*Posterior, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	nP := len(parents)
	if nP == 0 {
		return nil, fmt.Errorf("ctic: no parents for sink %d", sink)
	}
	// (k, r) are the two halves of the chain's one state vector.
	x := make([]float64, 2*nP)
	k, rate := x[:nP:nP], x[nP:]
	for j := range k {
		k[j] = opts.PriorK.Mean()
		rate[j] = opts.PriorRShape * opts.PriorRScale // prior mean
	}
	logPost := func() float64 {
		lp := LogLikelihood(sink, parents, eps, k, rate)
		if math.IsInf(lp, -1) {
			return lp
		}
		for j := range k {
			lp += opts.PriorK.LogPDF(k[j])
			lp += dist.GammaLogPDF(rate[j]/opts.PriorRScale, opts.PriorRShape) - math.Log(opts.PriorRScale)
		}
		return lp
	}
	cur := logPost()
	run := dist.RunMetropolis(x, 2*nP, opts.BurnIn, opts.Thin, opts.Samples, func() bool {
		j := r.Intn(nP)
		if r.Bernoulli(0.5) {
			old := k[j]
			k[j] = old + opts.StepK*r.Norm()
			if k[j] <= 0 || k[j] >= 1 {
				k[j] = old
				return false
			}
			cand := logPost()
			if cand >= cur || r.Float64() < math.Exp(cand-cur) {
				cur = cand
				return true
			}
			k[j] = old
		} else {
			old := rate[j]
			// Multiplicative walk: propose r' = r * e^(eps). The proposal
			// is asymmetric in r, with Hastings correction q(r|r')/q(r'|r)
			// = r'/r.
			rate[j] = old * math.Exp(opts.StepR*r.Norm())
			cand := logPost() + math.Log(rate[j]/old)
			if cand >= cur || r.Float64() < math.Exp(cand-cur) {
				cur = cand - math.Log(rate[j]/old)
				return true
			}
			rate[j] = old
		}
		return false
	})
	post := &Posterior{
		Parents:        append([]graph.NodeID(nil), parents...),
		KSamples:       make([][]float64, opts.Samples),
		RSamples:       make([][]float64, opts.Samples),
		KMean:          run.Mean[:nP:nP],
		KStd:           run.StdDev[:nP:nP],
		RMean:          run.Mean[nP:],
		RStd:           run.StdDev[nP:],
		AcceptanceRate: run.AcceptanceRate,
	}
	for i, row := range run.Samples {
		post.KSamples[i], post.RSamples[i] = row[:nP:nP], row[nP:]
	}
	return post, nil
}
