package core

import "math"

// LinearClass is the mapping class: M(x) = αx + β, discovered by
// Algorithm 2 (FindLinearMapping); its zero value is the default. It
// fulfills all four desired mapping-function characteristics:
// parameterized from two distinct fingerprint entries, validated on
// the rest, trivially computable, and exactly applicable to
// expectations and standard deviations.
type LinearClass struct {
	// StrictConstants reproduces the paper's Algorithm 2 literally:
	// constant fingerprints never match anything (the α computation
	// degenerates on them). The default (false) additionally matches
	// *identical* constant fingerprints via the identity mapping —
	// needed for event-style Markov chains whose outputs sit still
	// between discontinuities, and useful for indicator columns when
	// combined with mc.Options.ValidationSamples. See the Find doc
	// comment for the statistical trade-off.
	StrictConstants bool
}

// Find implements Algorithm 2 of the paper with two robustness
// extensions required by floating-point black boxes:
//
//  1. α and β are parameterized from the first two *distinct* entries
//     of the source fingerprint rather than blindly from entries 1 and
//     2, avoiding a division by ~0 when a model returns repeated
//     values (overload indicators, quantized capacities).
//  2. Validation uses ApproxEqual instead of exact equality; reuse
//     across parameter points is exact only up to rounding.
//
// Constant fingerprints are handled explicitly and conservatively:
// only an *identical* constant fingerprint matches (identity mapping).
// A non-zero shift between two different constants would assert that
// the target distribution is a point mass shifted from the source —
// a claim m identical samples cannot support (an overload indicator
// that sampled ten zeros is not the constant 0). The paper's
// Algorithm 2 likewise never matches constant fingerprints (its α
// computation degenerates); restricting to identity recovers the
// sound subset of that behavior, which is what limits Overload's
// speedup to ~2× in Fig. 8 (§6.2). Mapping a constant source onto a
// varying target, and the degenerate α=0 collapse, are rejected for
// the same reason.
//
// Every mapping Find returns is invertible: α is finite and non-zero,
// and β, 1/α and β/α are finite, so Linear.Inverse is total on them.
func (c LinearClass) Find(from, to Fingerprint) (Linear, bool) {
	if len(from) != len(to) || len(from) < 2 {
		return Linear{}, false
	}
	i, j, ok := from.FirstTwoDistinct()
	if !ok {
		// Element-wise, not just from[0] against to[0]: ApproxEqual
		// is not transitive, so two near-constant fingerprints can
		// agree at their first entries and still differ by up to twice
		// the tolerance.
		if !c.StrictConstants && to.IsConstant() && from.ApproxEqual(to) {
			return Identity(), true
		}
		return Linear{}, false
	}
	if to.IsConstant() {
		return Linear{}, false
	}
	num, den := to[i]-to[j], from[i]-from[j]
	if math.IsInf(num, 0) || math.IsInf(den, 0) {
		// A span beyond the float64 range; halving first is exact for
		// normal values, so even [−MaxFloat64, MaxFloat64] maps onto
		// itself.
		num, den = to[i]/2-to[j]/2, from[i]/2-from[j]/2
	}
	alpha := num / den
	lin := Linear{Alpha: alpha, Beta: to[i] - alpha*from[i]}
	if !lin.invertible() || !Validate(lin, from, to) {
		return Linear{}, false
	}
	return lin, true
}

// invertible reports whether α ≠ 0 and α, β, 1/α and β/α are all
// finite. Extreme fingerprints can yield a subnormal α (1/α = +Inf)
// or a β/α beyond the float64 range; such a mapping may validate, but
// the interactive engine could not fold samples back through it.
func (l Linear) invertible() bool {
	inv := l.Inverse()
	for _, x := range [...]float64{l.Alpha, l.Beta, inv.Alpha, inv.Beta} {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return false
		}
	}
	return l.Alpha != 0
}
