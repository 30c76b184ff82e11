package dist

import "math"

// MetropolisRun is what RunMetropolis returns: the retained rows and
// their per-coordinate summary.
type MetropolisRun struct {
	// Samples[i] is a copy of the chain's state after the i-th thinning
	// interval.
	Samples [][]float64
	// Mean and StdDev are per coordinate; StdDev is the population SD,
	// E[x²]−E[x]² clamped at 0 before the square root.
	Mean, StdDev []float64
	// AcceptanceRate is accepted steps over all steps.
	AcceptanceRate float64
}

// RunMetropolis is the random-walk Metropolis loop both edge learners
// run. step proposes a move of x in place, keeps or undoes it, and
// reports whether it kept it; every call counts as one proposal. A sweep
// is sweep calls of step. The chain runs burnIn sweeps, then samples
// times thin sweeps, each followed by a copy of x as a retained row.
// samples must be positive.
func RunMetropolis(x []float64, sweep, burnIn, thin, samples int, step func() bool) MetropolisRun {
	var proposed, accepted int64
	run := func(sweeps int) {
		for i := 0; i < sweeps*sweep; i++ {
			proposed++
			if step() {
				accepted++
			}
		}
	}
	run(burnIn)
	out := MetropolisRun{Samples: make([][]float64, 0, samples)}
	sums := make([]float64, len(x))
	sqs := make([]float64, len(x))
	for n := 0; n < samples; n++ {
		run(thin)
		row := append([]float64(nil), x...)
		out.Samples = append(out.Samples, row)
		for j, v := range row {
			sums[j] += v
			sqs[j] += v * v
		}
	}
	out.Mean = make([]float64, len(x))
	out.StdDev = make([]float64, len(x))
	nf := float64(samples)
	for j := range sums {
		out.Mean[j] = sums[j] / nf
		v := sqs[j]/nf - out.Mean[j]*out.Mean[j]
		if v < 0 {
			v = 0
		}
		out.StdDev[j] = math.Sqrt(v)
	}
	out.AcceptanceRate = float64(accepted) / float64(proposed)
	return out
}
