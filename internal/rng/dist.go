package rng

import (
	"fmt"
	"math"
)

// This file implements the distribution samplers used by the paper's
// black-box models (Fig. 6): normal, exponential, Poisson, Bernoulli,
// uniform, log-normal, and a few utility distributions. Every sampler
// consumes a deterministic amount of the generator's stream for a given
// seed, which is what makes fingerprint comparison meaningful: two
// invocations under related parameters take the same code path and see
// the same underlying uniforms (§3.1).

// Normal returns a sample from N(mu, sigma^2). sigma must be >= 0; a
// zero sigma returns mu exactly (useful for degenerate model cases).
//
// The implementation is the Marsaglia polar method. The second variate
// is cached, so a pair of Normal calls consumes a deterministic number
// of uniforms for a given seed.
func (r *Rand) Normal(mu, sigma float64) float64 {
	return NormalFrom(mu, sigma, r.StdNormal())
}

// NormalFrom is the N(mu, sigma²) sample whose standard normal variate
// is z: Normal is NormalFrom(mu, sigma, r.StdNormal()). A caller that
// draws z once and scales it for many (mu, sigma) pairs gets Normal's
// bits for each. It panics when sigma < 0, as Normal does.
func NormalFrom(mu, sigma, z float64) float64 {
	CheckSigma(sigma)
	return mu + sigma*z
}

// CheckSigma panics when sigma < 0, with NormalFrom's message: a caller
// that scales a block of variates by one sigma checks it once.
func CheckSigma(sigma float64) {
	if sigma < 0 {
		badParam("Normal called with negative sigma", sigma)
	}
}

// StdNormal returns a sample from the standard normal distribution.
func (r *Rand) StdNormal() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := polarScale(s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// FillStdNormal fills z with the next len(z) StdNormal variates, bit
// for bit, and leaves r where those calls leave it, the cached variate
// included. It runs StdNormal's polar method in two passes: the first
// draws each accepted (u, v) pair into z, after the cached variate if
// there is one, and the second scales each pair by sqrt(-2·ln s / s).
// The second pass reads no generator state, so its Log calls do not
// wait on one another or on the stream.
func (r *Rand) FillStdNormal(z []float64) {
	if len(z) == 0 {
		return
	}
	i := 0
	if r.hasGauss {
		r.hasGauss = false
		z[0] = r.gauss
		i = 1
	}
	first := i
	var lastV float64 // the v of a pair whose u fills z's last slot
	for i < len(z) {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		if s := u*u + v*v; s >= 1 || s == 0 {
			continue
		}
		z[i] = u
		if i+1 < len(z) {
			z[i+1] = v
		} else {
			lastV = v
		}
		i += 2
	}
	for i = first; i+1 < len(z); i += 2 {
		u, v := z[i], z[i+1]
		f := polarScale(u*u + v*v)
		z[i], z[i+1] = u*f, v*f
	}
	switch {
	case i < len(z): // an odd tail: its pair's v·f is the cached variate
		u := z[i]
		f := polarScale(u*u + lastV*lastV)
		z[i] = u * f
		r.gauss, r.hasGauss = lastV*f, true
	case first < len(z): // StdNormal leaves a spent pair's v·f in gauss
		r.gauss = z[len(z)-1]
	}
}

// polarScale is the factor that turns an accepted polar pair (u, v)
// with s = u*u + v*v into two standard normal variates.
func polarScale(s float64) float64 {
	return math.Sqrt(-2 * math.Log(s) / s)
}

// NormalVar returns a sample from a normal distribution specified by
// mean and *variance*, matching the paper's Algorithm 1 which writes
// Normal(µ: …, σ²: …).
func (r *Rand) NormalVar(mu, variance float64) float64 {
	if variance < 0 {
		panic(fmt.Sprintf("rng: NormalVar called with negative variance %g", variance))
	}
	return r.Normal(mu, math.Sqrt(variance))
}

// Exponential returns a sample from Exp(rate); mean is 1/rate. The
// Capacity model uses it for hardware bring-up delays.
func (r *Rand) Exponential(rate float64) float64 {
	return ExponentialFrom(rate, r.StdExponential())
}

// StdExponential returns a sample from Exp(1): the variate Exponential
// scales by 1/rate.
func (r *Rand) StdExponential() float64 {
	// 1-Float64() is in (0,1], avoiding log(0).
	return -math.Log(1 - r.Float64())
}

// ExponentialFrom is the Exp(rate) sample whose Exp(1) variate is e:
// Exponential is ExponentialFrom(rate, r.StdExponential()). It panics
// when rate <= 0, as Exponential does.
func ExponentialFrom(rate, e float64) float64 {
	CheckRate(rate)
	return e / rate
}

// CheckRate panics when rate <= 0, with ExponentialFrom's message: a
// caller that scales a block of variates by one rate checks it once.
func CheckRate(rate float64) {
	if rate <= 0 {
		badParam("Exponential called with non-positive rate", rate)
	}
}

// badParam panics on an invalid distribution parameter. It is kept out
// of line so the checks and scaling helpers above stay small enough to
// inline.
//
//go:noinline
func badParam(msg string, v float64) {
	panic(fmt.Sprintf("rng: %s %g", msg, v))
}

// Bernoulli returns true with probability p. p outside [0,1] is
// clamped; callers construct p from model arithmetic where slight
// overshoot is routine.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Uniform returns a sample from U[lo, hi). It panics when hi < lo.
func (r *Rand) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("rng: Uniform called with hi %g < lo %g", hi, lo))
	}
	return lo + (hi-lo)*r.Float64()
}

// LogNormal returns a sample whose logarithm is N(mu, sigma^2). Used by
// the per-user requirement model (UserSelection): individual user
// demand is heavy-tailed.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Binomial returns a sample from Binomial(n, p) by summing Bernoulli
// trials. n is small in all model uses (failure counts per week), so
// the O(n) cost is acceptable and the stream consumption is simple to
// reason about.
func (r *Rand) Binomial(n int, p float64) int {
	if n < 0 {
		panic(fmt.Sprintf("rng: Binomial called with negative n %d", n))
	}
	k := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			k++
		}
	}
	return k
}

// Pareto returns a sample from a Pareto distribution with the given
// minimum xm and shape alpha. Heavy-tailed user requirements use it in
// workload generators.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic(fmt.Sprintf("rng: Pareto called with xm %g, alpha %g", xm, alpha))
	}
	u := 1 - r.Float64()
	return xm / math.Pow(u, 1/alpha)
}
