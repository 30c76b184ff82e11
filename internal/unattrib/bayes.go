package unattrib

import (
	"fmt"
	"math"

	"infoflow/internal/dist"
	"infoflow/internal/rng"
)

// BayesOptions configures the joint-Bayes MCMC sampler.
type BayesOptions struct {
	BurnIn  int     // discarded initial steps (whole-vector sweeps)
	Thin    int     // sweeps between retained samples
	Samples int     // number of retained posterior samples
	Step    float64 // random-walk proposal width on each coordinate
}

// DefaultBayesOptions returns settings that mix well on the paper's
// per-sink problems (a handful of incident edges).
func DefaultBayesOptions() BayesOptions {
	return BayesOptions{BurnIn: 500, Thin: 5, Samples: 2000, Step: 0.08}
}

func (o BayesOptions) validate() error {
	if o.BurnIn < 0 || o.Thin <= 0 || o.Samples <= 0 || o.Step <= 0 {
		return fmt.Errorf("unattrib: invalid bayes options %+v", o)
	}
	return nil
}

// Posterior holds the joint-Bayes estimate for one sink: per-edge
// posterior samples plus summary statistics. Samples[i][j] is the i-th
// retained sample of local parent j's edge probability.
type Posterior struct {
	Summary *Summary
	Samples [][]float64
	// Mean and StdDev are per local parent index.
	Mean   []float64
	StdDev []float64
	// AcceptanceRate of the coordinate proposals, for diagnostics.
	AcceptanceRate float64
}

// Betas returns per-edge beta distributions moment-matched to the
// posterior samples — the edge-marginal approximation the paper stores
// for its Figure 8-10 experiments.
func (p *Posterior) Betas() []dist.Beta {
	out := make([]dist.Beta, len(p.Mean))
	for j := range out {
		v := p.StdDev[j] * p.StdDev[j]
		out[j] = dist.FitBetaMoments(p.Mean[j], v)
	}
	return out
}

// Normals returns per-edge (mean, stddev) gaussian approximations, used
// by the Figure 10 edge-uncertainty experiment.
func (p *Posterior) Normals() []dist.Normal {
	out := make([]dist.Normal, len(p.Mean))
	for j := range out {
		out[j] = dist.NewNormal(p.Mean[j], p.StdDev[j])
	}
	return out
}

// Correlation returns the posterior correlation matrix of the edge
// probabilities — the joint structure the paper highlights as something
// point estimators cannot provide ("can even indicate if some edges are
// positively or negatively correlated"). Entry [i][j] is the Pearson
// correlation of parents i and j across the posterior samples; edges
// with zero posterior variance report 0 off-diagonal.
func (p *Posterior) Correlation() [][]float64 {
	nP := len(p.Mean)
	out := make([][]float64, nP)
	for i := range out {
		out[i] = make([]float64, nP)
		out[i][i] = 1
	}
	if len(p.Samples) < 2 {
		return out
	}
	n := float64(len(p.Samples))
	for i := 0; i < nP; i++ {
		for j := i + 1; j < nP; j++ {
			cov := 0.0
			for _, row := range p.Samples {
				cov += (row[i] - p.Mean[i]) * (row[j] - p.Mean[j])
			}
			cov /= n
			denom := p.StdDev[i] * p.StdDev[j]
			if denom > 0 {
				c := cov / denom
				out[i][j], out[j][i] = c, c
			}
		}
	}
	return out
}

// UnambiguousPriors derives the per-edge beta priors of §V-B: counts from
// the unambiguous characteristics only (a single active incident node),
// defaulting to the uniform Beta(1,1) where no such evidence exists.
func UnambiguousPriors(s *Summary) []dist.Beta {
	return UnambiguousPriorsWith(s, dist.Uniform())
}

// UnambiguousPriorsWith is UnambiguousPriors on top of an arbitrary base
// prior. The paper notes its model "uses an informed prior ... to
// restrict edge probabilities when accurate prior information is given
// or inferred from the data"; passing e.g. a beta matched to the pooled
// network-wide activation rate realises that on sparse evidence.
func UnambiguousPriorsWith(s *Summary, base dist.Beta) []dist.Beta {
	priors := make([]dist.Beta, len(s.Parents))
	for j := range priors {
		priors[j] = base
	}
	for _, r := range s.Rows {
		if j, ok := r.Set.Single(); ok {
			priors[j] = priors[j].ObserveCounts(r.Leaks, r.Count-r.Leaks)
		}
	}
	return priors
}

// LogLikelihood evaluates the summary's log likelihood under edge
// probabilities p (Equation (9) up to the constant binomial
// coefficients): for each characteristic J, L_J successes out of n_J
// trials of the joint probability p_J = 1 - prod_{j in J}(1 - p_j).
func LogLikelihood(s *Summary, p []float64) float64 {
	ll := 0.0
	for _, r := range s.Rows {
		pJ := jointProb(r.Set, p)
		if r.Leaks > 0 {
			if pJ <= 0 {
				return math.Inf(-1)
			}
			ll += float64(r.Leaks) * math.Log(pJ)
		}
		if r.Count-r.Leaks > 0 {
			if pJ >= 1 {
				return math.Inf(-1)
			}
			ll += float64(r.Count-r.Leaks) * math.Log1p(-pJ)
		}
	}
	return ll
}

// jointProb is p_J = 1 - prod_{j in J}(1 - p_j).
func jointProb(set CharBits, p []float64) float64 {
	surv := 1.0
	for j := 0; j < len(p); j++ {
		if set.Has(j) {
			surv *= 1 - p[j]
		}
	}
	return 1 - surv
}

// logPosterior is the unnormalised log posterior: beta log-priors plus
// the binomial log likelihood.
func logPosterior(s *Summary, priors []dist.Beta, p []float64) float64 {
	lp := LogLikelihood(s, p)
	if math.IsInf(lp, -1) {
		return lp
	}
	for j, prior := range priors {
		lp += prior.LogPDF(p[j])
	}
	return lp
}

// JointBayes estimates the joint posterior over all edge probabilities
// incident on the summary's sink by Metropolis-Hastings: a random-walk
// proposal on one uniformly chosen coordinate per step, a full sweep
// being len(parents) steps. This replaces the paper's ~50 lines of PyMC.
func JointBayes(s *Summary, opts BayesOptions, r *rng.RNG) (*Posterior, error) {
	return JointBayesWithPrior(s, dist.Uniform(), opts, r)
}

// JointBayesWithPrior is JointBayes with an informed base prior applied
// to every incident edge before the unambiguous counts (see
// UnambiguousPriorsWith).
func JointBayesWithPrior(s *Summary, base dist.Beta, opts BayesOptions, r *rng.RNG) (*Posterior, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	nP := len(s.Parents)
	if nP == 0 {
		return nil, fmt.Errorf("unattrib: summary for sink %d has no parents", s.Sink)
	}
	priors := UnambiguousPriorsWith(s, base)
	// Start at the prior means: a positive-density point.
	p := make([]float64, nP)
	for j := range p {
		p[j] = priors[j].Mean()
	}
	logPost := logPosterior(s, priors, p)
	run := dist.RunMetropolis(p, nP, opts.BurnIn, opts.Thin, opts.Samples, func() bool {
		j := r.Intn(nP)
		old := p[j]
		p[j] = old + opts.Step*r.Norm()
		if p[j] <= 0 || p[j] >= 1 {
			p[j] = old // out of support: reject
			return false
		}
		cand := logPosterior(s, priors, p)
		if cand >= logPost || r.Float64() < math.Exp(cand-logPost) {
			logPost = cand
			return true
		}
		p[j] = old
		return false
	})
	return &Posterior{
		Summary:        s,
		Samples:        run.Samples,
		Mean:           run.Mean,
		StdDev:         run.StdDev,
		AcceptanceRate: run.AcceptanceRate,
	}, nil
}
