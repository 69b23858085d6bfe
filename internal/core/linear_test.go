package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFindLinearMappingRecoversCoefficients(t *testing.T) {
	// The worked example from §3.1 of the paper: θ1 and θ2 differ by a
	// +0.1 shift.
	theta1 := Fingerprint{0, 1.2, 2.3, 1.3, 1.5}
	theta2 := Fingerprint{0.1, 1.3, 2.4, 1.4, 1.6}
	m, ok := LinearClass{}.Find(theta1, theta2)
	if !ok {
		t.Fatal("no mapping found for paper's example")
	}
	alpha, beta := m.Alpha, m.Beta
	if math.Abs(alpha-1) > 1e-9 || math.Abs(beta-0.1) > 1e-9 {
		t.Fatalf("mapping = %v, want x+0.1", m)
	}
}

func TestFindLinearMappingGeneral(t *testing.T) {
	from := Fingerprint{-1, 0.5, 2, 7, 3.25}
	want := Linear{Alpha: -2.5, Beta: 4}
	m, ok := LinearClass{}.Find(from, from.MappedBy(want))
	if !ok {
		t.Fatal("no mapping found")
	}
	alpha, beta := m.Alpha, m.Beta
	if math.Abs(alpha-want.Alpha) > 1e-9 || math.Abs(beta-want.Beta) > 1e-9 {
		t.Fatalf("mapping = %v, want %v", m, want)
	}
}

func TestFindLinearMappingRejectsNonLinear(t *testing.T) {
	from := Fingerprint{1, 2, 3, 4}
	to := Fingerprint{1, 4, 9, 16} // quadratic image
	if _, ok := (LinearClass{}).Find(from, to); ok {
		t.Fatal("quadratic relation accepted as linear")
	}
}

func TestFindLinearMappingLeadingTies(t *testing.T) {
	// First two entries equal: Algorithm 2 as literally printed would
	// divide by zero; the implementation must skip to the first
	// distinct pair.
	from := Fingerprint{5, 5, 5, 8, 11}
	want := Linear{Alpha: 2, Beta: -1}
	m, ok := LinearClass{}.Find(from, from.MappedBy(want))
	if !ok {
		t.Fatal("no mapping found despite leading ties")
	}
	alpha, beta := m.Alpha, m.Beta
	if math.Abs(alpha-2) > 1e-9 || math.Abs(beta+1) > 1e-9 {
		t.Fatalf("mapping = %v", m)
	}
}

func TestFindLinearMappingConstants(t *testing.T) {
	c1 := Fingerprint{3, 3, 3}
	c2 := Fingerprint{7, 7, 7}
	// Identical constants match via identity: an all-zero overload
	// fingerprint may reuse another all-zero point's simulation.
	m, ok := LinearClass{}.Find(c1, Fingerprint{3, 3, 3})
	if !ok || m != Identity() {
		t.Fatal("identical constants should match via identity")
	}
	// Different constants must NOT match: m identical samples cannot
	// certify a point-mass distribution, so a shift would fabricate
	// statistics (e.g. mapping an all-ones overload point onto an
	// all-zeros basis).
	if _, ok := (LinearClass{}).Find(c1, c2); ok {
		t.Fatal("different constants matched")
	}
	// Constant source cannot reach a varying target.
	if _, ok := (LinearClass{}).Find(c1, Fingerprint{1, 2, 3}); ok {
		t.Fatal("constant source mapped onto varying target")
	}
	// Varying source must not be collapsed onto a constant (alpha=0).
	if _, ok := (LinearClass{}).Find(Fingerprint{1, 2, 3}, c2); ok {
		t.Fatal("varying source collapsed onto constant target")
	}
}

func TestFindLinearMappingDegenerateInputs(t *testing.T) {
	cls := LinearClass{}
	if _, ok := cls.Find(Fingerprint{1}, Fingerprint{2}); ok {
		t.Fatal("length-1 fingerprints accepted")
	}
	if _, ok := cls.Find(Fingerprint{1, 2}, Fingerprint{1, 2, 3}); ok {
		t.Fatal("length mismatch accepted")
	}
}

// TestFindRejectsNonInvertibleMapping pins that every mapping Find
// returns has a total inverse: extreme fingerprints that validate
// under a subnormal α (1/α = +Inf) or a β/α beyond the float64 range
// are rejected, by Find and by a Normalization-indexed Store.Match.
func TestFindRejectsNonInvertibleMapping(t *testing.T) {
	for _, tc := range []struct{ from, to Fingerprint }{
		{Fingerprint{0, 1e308, 5e307, 0}, Fingerprint{0, 2e-9, 1e-9, 0}},
		{Fingerprint{1e308, -1e308, 0, 5e307}, Fingerprint{1, 1 - 4e-9, 1 - 2e-9, 1 - 1e-9}},
	} {
		if m, ok := (LinearClass{}).Find(tc.from, tc.to); ok {
			t.Errorf("Find(%v, %v) = %v with inverse %v, want no mapping", tc.from, tc.to, m, m.Inverse())
		}
		s := NewStore(LinearClass{}, NewNormalizationIndex())
		if _, err := s.Add(tc.from, nil); err != nil {
			t.Fatal(err)
		}
		if _, m, ok, _ := s.Match(tc.to, nil, nil); ok {
			t.Errorf("Match(%v) = %v with inverse %v, want no mapping", tc.to, m, m.Inverse())
		}
	}
}

// Property (Algorithm 2 soundness + completeness on its own class):
// for any fingerprint with at least two distinct entries and any
// nondegenerate linear map, Find recovers a mapping that validates,
// and the recovered coefficients reproduce the image.
func TestQuickFindLinearRoundTrip(t *testing.T) {
	f := func(vals [6]int16, alphaRaw, betaRaw int8) bool {
		from := make(Fingerprint, len(vals))
		for i, v := range vals {
			from[i] = float64(v) / 32
		}
		if from.IsConstant() {
			return true // vacuous
		}
		alpha := float64(alphaRaw)/16 + 0.03125
		if alpha == 0 {
			return true
		}
		beta := float64(betaRaw) / 16
		want := Linear{Alpha: alpha, Beta: beta}
		to := from.MappedBy(want)
		m, ok := LinearClass{}.Find(from, to)
		if !ok {
			return false
		}
		return Validate(m, from, to)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
