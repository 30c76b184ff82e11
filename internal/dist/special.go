// Package dist implements the probability distributions and special
// functions the infoflow library depends on: Beta (including the
// regularized incomplete beta function and its inverse), Gamma sampling,
// Binomial, and Normal, plus utilities for summarising sample sets.
//
// Everything is implemented on top of the standard library's math package
// only. Accuracy targets are those of the experiments in the paper
// (confidence intervals, likelihoods, quantiles): roughly 1e-10 relative
// error for the special functions over the parameter ranges used
// (alpha, beta in [1, ~10^4]).
package dist

import (
	"fmt"
	"math"
)

// LogGamma returns ln|Γ(x)|.
func LogGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// LogBeta returns ln B(a,b) = lnΓ(a) + lnΓ(b) − lnΓ(a+b).
func LogBeta(a, b float64) float64 {
	return LogGamma(a) + LogGamma(b) - LogGamma(a+b)
}

// LogChoose returns ln C(n,k) for 0 <= k <= n.
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return LogGamma(float64(n)+1) - LogGamma(float64(k)+1) - LogGamma(float64(n-k)+1)
}

// RegIncBeta returns the regularized incomplete beta function I_x(a,b),
// which is the CDF of a Beta(a,b) distribution evaluated at x.
//
// It uses the continued-fraction expansion (Numerical Recipes style) with
// the symmetry transformation to keep the fraction convergent.
func RegIncBeta(x, a, b float64) float64 {
	if a <= 0 || b <= 0 {
		//flowlint:invariant documented contract: incomplete-beta shape parameters must be positive
		panic(fmt.Sprintf("dist: RegIncBeta with non-positive shape a=%v b=%v", a, b))
	}
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	// ln of the prefactor x^a (1-x)^b / (a B(a,b)).
	logPre := a*math.Log(x) + b*math.Log1p(-x) - LogBeta(a, b)
	if x < (a+1)/(a+b+2) {
		return math.Exp(logPre) * betaCF(x, a, b) / a
	}
	return 1 - math.Exp(logPre)*betaCF(1-x, b, a)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(x, a, b float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-15
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		fm := float64(m)
		// Even step.
		aa := fm * (b - fm) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			return h
		}
	}
	// The fraction converges in well under maxIter iterations for all the
	// parameter ranges we use; reaching here indicates extreme inputs, and
	// the partial evaluation is still the best available answer.
	return h
}

// InvRegIncBeta returns x such that I_x(a,b) = p, the quantile function of
// a Beta(a,b) distribution. A quantile above 1/2 is found as one minus the
// (1-p)-quantile of Beta(b,a), so the search always runs in (0, 1/2],
// where a float keeps its relative precision however small the quantile
// is (see lowerQuantile).
func InvRegIncBeta(p, a, b float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return 1
	case p > RegIncBeta(0.5, a, b):
		return 1 - lowerQuantile(1-p, b, a)
	}
	return lowerQuantile(p, a, b)
}

// lowerQuantile returns the p-quantile of Beta(a,b) when it lies in
// (0, 1/2]. It starts from the leading term of the CDF's series at 0,
// I_x(a,b) ≈ x^a / (a B(a,b)), which is the quantile's asymptote in the
// lower tail, and polishes with Newton steps on the CDF inside a bracket
// each evaluation narrows. When Newton leaves the bracket it bisects it,
// in log x once the bracket's lower end is positive, so a quantile of
// order 1e-15 or below is reached in a few steps. It stops on a step
// below 1e-14 of x, a relative test: an absolute one stops a tiny
// quantile while its relative error is still of order 1.
func lowerQuantile(p, a, b float64) float64 {
	logB := LogBeta(a, b)
	lo, hi := 0.0, 0.5
	x := math.Exp((math.Log(p*a) + logB) / a)
	if !(x < hi) {
		x = hi / 2
	}
	for i := 0; i < 200; i++ {
		f := RegIncBeta(x, a, b) - p
		if f > 0 {
			hi = x
		} else {
			lo = x
		}
		// Newton step using the beta density as the derivative.
		next := x - f/math.Exp((a-1)*math.Log(x)+(b-1)*math.Log1p(-x)-logB)
		if !(next > lo && next < hi) {
			next = hi / 2
			if lo > 0 {
				next = math.Sqrt(lo * hi)
			}
		}
		if math.Abs(next-x) <= 1e-14*x {
			return next
		}
		x = next
	}
	return x
}

// ErfApproxCDF returns the standard normal CDF Φ(x) via math.Erf.
func ErfApproxCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}
