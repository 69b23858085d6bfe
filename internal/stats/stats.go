// Package stats implements the Estimator stage of Jigsaw's Monte Carlo
// pipeline (Fig. 3): it aggregates i.i.d. samples of a query-result
// distribution into the characteristics a statement can ask for —
// expectation and standard deviation, with the observed range — and
// knows how to push affine mapping functions through them exactly,
// which is what makes basis-distribution reuse free (§3: Mexpect and
// family).
package stats

import (
	"errors"
	"fmt"
	"math"
)

// Accumulator ingests samples, one at a time or a block at a time, in
// O(1) memory. The Monte Carlo engine feeds it directly from the
// sample stream.
type Accumulator struct {
	n        int
	mean     float64
	m2       float64 // sum of squared deviations (Welford)
	min, max float64
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	a := &Accumulator{}
	a.Reset()
	return a
}

// Reset returns the accumulator to its empty state, so one accumulator
// can be recycled across Monte Carlo points. A zero-valued Accumulator
// must be Reset before use.
func (a *Accumulator) Reset() {
	*a = Accumulator{min: math.Inf(1), max: math.Inf(-1)}
}

// Add ingests one sample using Welford's numerically stable update.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
	if x < a.min {
		a.min = x
	}
	if x > a.max {
		a.max = x
	}
}

// AddAll ingests a batch of samples one at a time, bit-identical to a
// loop of Add calls.
func (a *Accumulator) AddAll(xs []float64) {
	for _, x := range xs {
		a.Add(x)
	}
}

// blockLanes is the unroll factor of AddBlock's fused reduction, and
// blockMin the batch size below which the scalar loop wins.
const (
	blockLanes = 4
	blockMin   = 4 * blockLanes
)

// AddBlock ingests a batch of samples through a fused four-lane
// reduction: one pass accumulates lane sums and min/max, a second
// accumulates squared deviations from the batch mean, and the batch
// moments merge into the running state by the parallel-variance
// combine of Chan et al. The reduction breaks the serial dependency
// chain of Welford's update (a divide per sample), which is what lets
// the Monte Carlo cold path summarize a block at memory speed; the
// two-pass form is also at least as accurate as the streaming update.
//
// AddBlock is deterministic — identical prior state and batch yield
// identical results — but its rounding differs from the equivalent
// sequence of Add calls, and depends on how a sample stream is split
// across AddBlock calls. Callers that need stream-split-invariant
// bits (the engine does: its full-simulation path always summarizes
// one complete sample vector per point) must keep their call pattern
// fixed; callers mixing incremental Adds keep using Add/AddAll.
func (a *Accumulator) AddBlock(xs []float64) {
	if len(xs) < blockMin {
		a.AddAll(xs)
		return
	}
	var s0, s1, s2, s3 float64
	mn, mx := math.Inf(1), math.Inf(-1)
	i := 0
	for ; i+blockLanes <= len(xs); i += blockLanes {
		x0, x1, x2, x3 := xs[i], xs[i+1], xs[i+2], xs[i+3]
		s0 += x0
		s1 += x1
		s2 += x2
		s3 += x3
		if x0 < mn {
			mn = x0
		}
		if x0 > mx {
			mx = x0
		}
		if x1 < mn {
			mn = x1
		}
		if x1 > mx {
			mx = x1
		}
		if x2 < mn {
			mn = x2
		}
		if x2 > mx {
			mx = x2
		}
		if x3 < mn {
			mn = x3
		}
		if x3 > mx {
			mx = x3
		}
	}
	for ; i < len(xs); i++ {
		x := xs[i]
		s0 += x
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	n := float64(len(xs))
	mean := ((s0 + s1) + (s2 + s3)) / n

	var q0, q1, q2, q3 float64
	i = 0
	for ; i+blockLanes <= len(xs); i += blockLanes {
		d0 := xs[i] - mean
		d1 := xs[i+1] - mean
		d2 := xs[i+2] - mean
		d3 := xs[i+3] - mean
		q0 += d0 * d0
		q1 += d1 * d1
		q2 += d2 * d2
		q3 += d3 * d3
	}
	for ; i < len(xs); i++ {
		d := xs[i] - mean
		q0 += d * d
	}
	m2 := (q0 + q1) + (q2 + q3)
	a.Merge(&Accumulator{n: len(xs), mean: mean, m2: m2, min: mn, max: mx})
}

// Merge folds b's samples into a by the parallel-variance combine of
// Chan et al. Merging an empty accumulator changes nothing, and
// merging into an empty one copies b, so Reset + AddBlock + Merge is
// bit-identical to AddBlock for a batch of at least blockMin samples.
// Merge is how per-block moments computed apart combine in order.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	na, nb := float64(a.n), float64(b.n)
	tot := na + nb
	delta := b.mean - a.mean
	a.mean += delta * nb / tot
	a.m2 += b.m2 + delta*delta*na*nb/tot
	a.n += b.n
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
}

// N returns the number of samples ingested.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 with no samples).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest sample (+Inf with no samples).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample (−Inf with no samples).
func (a *Accumulator) Max() float64 { return a.max }

// Summary snapshots the characteristics of an output distribution.
// Summaries are the payloads stored with basis distributions; MapAffine
// produces the summary of a mapped distribution without resampling.
type Summary struct {
	// N is the number of samples behind the summary.
	N int
	// Mean is the expectation estimate.
	Mean float64
	// StdDev is the unbiased standard deviation estimate.
	StdDev float64
	// Min and Max bound the observed samples.
	Min, Max float64
}

// Summarize builds a Summary from the accumulator.
func (a *Accumulator) Summarize() Summary {
	return Summary{N: a.n, Mean: a.mean, StdDev: a.StdDev(), Min: a.min, Max: a.max}
}

// MapAffine returns the summary of the distribution αX+β given the
// summary of X. This is the family of derived mapping functions from
// §3: Mexpect(E[X]) = αE[X]+β, σ ↦ |α|σ, and the range's endpoints map
// (and swap when α < 0).
func (s Summary) MapAffine(alpha, beta float64) Summary {
	lo := alpha*s.Min + beta
	hi := alpha*s.Max + beta
	if lo > hi {
		lo, hi = hi, lo
	}
	return Summary{
		N:      s.N,
		Mean:   alpha*s.Mean + beta,
		StdDev: math.Abs(alpha) * s.StdDev,
		Min:    lo,
		Max:    hi,
	}
}

// ConfidenceInterval returns the half-width of the two-sided normal
// approximation confidence interval for the mean at the given
// confidence level (e.g. 0.95). The interactive front ends report it
// beside a point's progressive estimate.
func (s Summary) ConfidenceInterval(level float64) (float64, error) {
	if s.N == 0 {
		return 0, errors.New("stats: no samples")
	}
	if level <= 0 || level >= 1 {
		return 0, fmt.Errorf("stats: confidence level %g outside (0,1)", level)
	}
	z := normalQuantile(0.5 + level/2)
	return z * s.StdDev / math.Sqrt(float64(s.N)), nil
}

// normalQuantile computes Φ⁻¹(p) by the Acklam rational approximation,
// accurate to ~1e-9 over (0,1) — ample for CI reporting.
func normalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
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
	case p <= phigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
