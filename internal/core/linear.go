package core

import "math"

// LinearClass is the paper's default mapping class: M(x) = αx + β,
// discovered by Algorithm 2 (FindLinearMapping). It fulfills all four
// desired mapping-function characteristics: parameterized from two
// distinct fingerprint entries, validated on the rest, trivially
// computable, and exactly applicable to expectations and standard
// deviations.
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

// Name implements MappingClass.
func (LinearClass) Name() string { return "linear" }

// CanMatchConstants implements MappingClass: identical constants match
// via identity unless strict mode reproduces Algorithm 2 literally.
func (c LinearClass) CanMatchConstants() bool { return !c.StrictConstants }

// Monotone implements MappingClass. Linear maps with α>0 are
// increasing and with α<0 decreasing; the Sorted-SID index checks both
// orientations, so the class is declared monotone.
func (LinearClass) Monotone() bool { return true }

// Find implements Algorithm 2 of the paper with two robustness
// extensions required by floating-point black boxes:
//
//  1. α and β are parameterized from the first two *distinct* entries
//     of the source fingerprint rather than blindly from entries 1 and
//     2, avoiding a division by ~0 when a model returns repeated
//     values (overload indicators, quantized capacities).
//  2. Validation uses a relative tolerance instead of exact equality;
//     reuse across parameter points is exact only up to rounding.
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
func (c LinearClass) Find(from, to Fingerprint, tol float64) (Mapping, bool) {
	if len(from) != len(to) || len(from) < 2 {
		return nil, false
	}
	i, j, ok := from.FirstTwoDistinct(tol)
	if !ok {
		// Element-wise, not just from[0] against to[0]: tolerance is
		// not transitive, so two near-constant fingerprints can agree
		// at their first entries and still differ by up to 2·tol.
		if !c.StrictConstants && to.IsConstant(tol) && from.ApproxEqual(to, tol) {
			return Identity(), true
		}
		return nil, false
	}
	if to.IsConstant(tol) {
		return nil, false
	}
	num, den := to[i]-to[j], from[i]-from[j]
	if math.IsInf(num, 0) || math.IsInf(den, 0) {
		// A span beyond the float64 range; halving first is exact for
		// normal values, so even [−MaxFloat64, MaxFloat64] maps onto
		// itself.
		num, den = to[i]/2-to[j]/2, from[i]/2-from[j]/2
	}
	alpha := num / den
	if alpha == 0 {
		return nil, false
	}
	beta := to[i] - alpha*from[i]
	// Validate on the concrete value and box only a *successful*
	// mapping, so a rejected candidate costs no allocation. That
	// matters for wide probes — an array scan over B bases used to box
	// O(B) rejected mappings per point before finding the match.
	lin := Linear{Alpha: alpha, Beta: beta}
	if !validateLinear(lin, from, to, tol) {
		return nil, false
	}
	return lin, true
}

// validateLinear is Validate specialized to the concrete Linear type:
// the same element-wise check (identical arithmetic to Linear.Apply)
// without an interface conversion, so rejecting a candidate performs
// no allocation.
func validateLinear(l Linear, from, to Fingerprint, tol float64) bool {
	if len(from) != len(to) {
		return false
	}
	for i := range from {
		if !approxEqual(l.Alpha*from[i]+l.Beta, to[i], tol) {
			return false
		}
	}
	return true
}

// ShiftClass restricts discovery to pure translations M(x) = x + β.
// It is cheaper to validate than the full linear class and useful for
// models known to differ only by offsets (e.g. cumulative capacity far
// from any purchase event).
type ShiftClass struct{}

// Name implements MappingClass.
func (ShiftClass) Name() string { return "shift" }

// CanMatchConstants implements MappingClass: shifts map constants onto
// constants.
func (ShiftClass) CanMatchConstants() bool { return true }

// Monotone implements MappingClass.
func (ShiftClass) Monotone() bool { return true }

// Find parameterizes β from the first entry pair and validates on the
// rest (concretely, like LinearClass — rejections allocate nothing).
func (ShiftClass) Find(from, to Fingerprint, tol float64) (Mapping, bool) {
	if len(from) != len(to) || len(from) == 0 {
		return nil, false
	}
	m := Shift(to[0] - from[0])
	if !validateLinear(m, from, to, tol) {
		return nil, false
	}
	return m, true
}

// IdentityClass only matches identical fingerprints. It is the
// degenerate class used when reuse must be exact (e.g. Markov state
// regeneration safety checks).
type IdentityClass struct{}

// Name implements MappingClass.
func (IdentityClass) Name() string { return "identity" }

// CanMatchConstants implements MappingClass: equal constants are
// identical fingerprints.
func (IdentityClass) CanMatchConstants() bool { return true }

// Monotone implements MappingClass.
func (IdentityClass) Monotone() bool { return true }

// Find returns the identity mapping iff the fingerprints agree
// element-wise.
func (IdentityClass) Find(from, to Fingerprint, tol float64) (Mapping, bool) {
	if !from.ApproxEqual(to, tol) {
		return nil, false
	}
	return Identity(), true
}
