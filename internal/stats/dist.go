package stats

import (
	"math"
	"math/rand"
)

// LogNormal is a log-normal distribution with log-space parameters Mu and
// Sigma. Microservice CPU service times are heavy-tailed; log-normal is the
// standard model and is what gives the simulated tiers realistic p99/p50
// ratios.
type LogNormal struct {
	Mu, Sigma float64
}

// LogNormalFromMeanCV builds a log-normal with the given (linear-space)
// mean and coefficient of variation cv = std/mean.
func LogNormalFromMeanCV(mean, cv float64) LogNormal {
	if mean <= 0 {
		panic("stats: LogNormalFromMeanCV requires mean > 0")
	}
	if cv < 0 {
		panic("stats: LogNormalFromMeanCV requires cv >= 0")
	}
	s2 := math.Log(1 + cv*cv)
	return LogNormal{
		Mu:    math.Log(mean) - s2/2,
		Sigma: math.Sqrt(s2),
	}
}

// Sample draws from the distribution.
func (l LogNormal) Sample(r *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean reports exp(mu + sigma^2/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Quantile returns the p-th percentile (0 < p < 100) of the distribution.
func (l LogNormal) Quantile(p float64) float64 {
	return math.Exp(l.Mu + l.Sigma*NormalQuantile(p/100))
}

// Exponential is an exponential distribution with the given Rate (1/mean),
// used for inter-arrival times of the Poisson load generators.
type Exponential struct {
	Rate float64
}

// Sample draws from the distribution.
func (e Exponential) Sample(r *rand.Rand) float64 { return r.ExpFloat64() / e.Rate }

// Mean reports 1/rate.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Deterministic always returns Value; useful in tests.
type Deterministic struct {
	Value float64
}

// Sample returns the fixed value.
func (d Deterministic) Sample(*rand.Rand) float64 { return d.Value }

// Mean returns the fixed value.
func (d Deterministic) Mean() float64 { return d.Value }

// NormalQuantile returns the standard normal quantile for probability
// p ∈ (0,1), using the Acklam rational approximation (relative error
// below 1.15e-9, ample for percentile bookkeeping).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: NormalQuantile requires 0 < p < 1")
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}
