package core

import "fmt"

// Linear is a mapping M(x) = αx + β: a closed-form function relating
// the outputs of a stochastic black box under two parameter
// valuations, F(Pi) ~M F(Pj) ≡ ∀x: f(x|Pi) = f(M(x)|Pj) (§3).
//
// The paper requires mappings to be (1) easy to parameterize, (2) easy
// to validate, (3) easy to compute, and (4) easily applied to simple
// aggregate properties such as expectation. Affine mappings meet
// property (4) exactly: they push through means, standard deviations
// and the observed range (stats.Summary.MapAffine).
type Linear struct {
	Alpha, Beta float64
}

// Apply maps a sample value from the source distribution into the
// target distribution's domain.
func (l Linear) Apply(x float64) float64 { return l.Alpha*x + l.Beta }

// Inverse returns M⁻¹(x) = x/α − β/α. The interactive engine (§5)
// folds new target-point samples back into the basis distribution
// through it. Every mapping LinearClass.Find returns has a finite,
// non-zero α and finite inverse coefficients.
func (l Linear) Inverse() Linear {
	return Linear{Alpha: 1 / l.Alpha, Beta: -l.Beta / l.Alpha}
}

func (l Linear) String() string { return fmt.Sprintf("M(x) = %g·x %+g", l.Alpha, l.Beta) }

// Identity returns the identity mapping (α=1, β=0).
func Identity() Linear { return Linear{Alpha: 1} }

// Shift returns the pure-translation mapping x+β.
func Shift(beta float64) Linear { return Linear{Alpha: 1, Beta: beta} }

// Validate checks that l maps from onto to element-wise (ApproxEqual).
// Mapping discovery parameterizes M from two fingerprint entries and
// validates on the rest (Algorithm 2); Validate is that second half.
// It allocates nothing, so rejecting a candidate is free.
func Validate(l Linear, from, to Fingerprint) bool {
	if len(from) != len(to) {
		return false
	}
	for i := range from {
		if !ApproxEqual(l.Apply(from[i]), to[i]) {
			return false
		}
	}
	return true
}
