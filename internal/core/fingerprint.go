// Package core implements Jigsaw's primary contribution: fingerprints
// of stochastic black-box functions, mapping functions between them,
// fingerprint indexes, and the basis-distribution store that lets the
// Monte Carlo engine reuse work across parameter values (§3 of the
// paper).
//
// The fingerprint of a parameterized stochastic function F(Pi), with
// respect to a fixed global vector of m seeds {σk}, is the vector
//
//	fingerprint({σk}, F(Pi)) = { F(Pi, σk) | 0 ≤ k < m }
//
// Because every invocation draws its randomness from the seeded
// generator, two parameter points whose output distributions are
// related by a closed-form mapping M produce fingerprints related by
// the same M — deterministically, not merely in distribution. Finding
// M between two m-vectors is therefore cheap (Algorithm 2), and a
// validated M lets the engine map previously computed output metrics
// instead of re-running the Monte Carlo simulation (Algorithm 3).
package core

import (
	"fmt"
	"math"

	"jigsaw/internal/rng"
)

// Func is a deterministic view of a stochastic black-box function: all
// randomness is derived from the explicit seed (§3.1: "we extend F
// with a seed parameter σ"). The Monte Carlo engine adapts richer
// black-box signatures to this shape by closing over the parameter
// point.
type Func func(seed uint64) float64

// Fingerprint is the output vector of a Func under the global seed set.
type Fingerprint []float64

// Compute evaluates f under the global seeds σ0 … σm−1 of master
// (rng.SampleSeed), producing its m-entry fingerprint. The k'th entry
// is also the k'th Monte Carlo sample, so computing a fingerprint
// performs the first m rounds of simulation rather than wasted extra
// work (§3.1).
func Compute(f Func, master uint64, m int) Fingerprint {
	fp := make(Fingerprint, m)
	for k := range fp {
		fp[k] = f(rng.SampleSeed(master, k))
	}
	return fp
}

// Clone returns an independent copy.
func (fp Fingerprint) Clone() Fingerprint {
	return append(Fingerprint(nil), fp...)
}

// IsConstant reports whether every entry equals the first
// (ApproxEqual). Constant fingerprints need special-casing in mapping
// discovery: the paper's Algorithm 2 divides by θ1[1]−θ1[2], which a
// constant fingerprint makes degenerate.
func (fp Fingerprint) IsConstant() bool {
	_, _, ok := fp.FirstTwoDistinct()
	return !ok
}

// FirstTwoDistinct returns the indices of the first entry and of the
// first later entry not ApproxEqual to it. ok is false for constant
// fingerprints.
func (fp Fingerprint) FirstTwoDistinct() (i, j int, ok bool) {
	for k := 1; k < len(fp); k++ {
		if !ApproxEqual(fp[k], fp[0]) {
			return 0, k, true
		}
	}
	return 0, 0, false
}

// ApproxEqual reports whether the fingerprints have the same length
// and pairwise ApproxEqual entries.
func (fp Fingerprint) ApproxEqual(other Fingerprint) bool {
	if len(fp) != len(other) {
		return false
	}
	for i := range fp {
		if !ApproxEqual(fp[i], other[i]) {
			return false
		}
	}
	return true
}

// MappedBy returns the element-wise image of the fingerprint under m.
func (fp Fingerprint) MappedBy(m Linear) Fingerprint {
	out := make(Fingerprint, len(fp))
	for i, v := range fp {
		out[i] = m.Apply(v)
	}
	return out
}

func (fp Fingerprint) String() string {
	return fmt.Sprintf("fp%v", []float64(fp))
}

// DefaultTolerance is the relative tolerance of ApproxEqual. Affine
// reuse of a deterministic stream is exact up to floating-point
// rounding; 1e-9 accommodates rounding while remaining far below any
// model-level signal. It is a constant, not an option: the indexes'
// no-false-negatives contract (§3.2) holds only if they group ties
// and detect constants at the same tolerance the mapping class
// validates at.
const DefaultTolerance = 1e-9

// ApproxEqual compares two scalars with relative tolerance:
// |a−b| ≤ DefaultTolerance·max(1,|a|,|b|). It is the single source of
// truth for every tolerance comparison in the system — mapping
// validation, constant detection, index tie grouping, the engine's
// match-validation draws and the interactive session's sample checks
// all share it, so they can never drift apart.
//
// The max(1,·) floor makes comparisons near zero behave absolutely,
// which matters for indicator-style model outputs (0/1 overload flags).
// A NaN equals nothing and an infinity only itself: with an infinite
// operand the relative bound would be infinite too, and +Inf would
// "equal" −Inf and every finite value.
func ApproxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= DefaultTolerance*scale
}
