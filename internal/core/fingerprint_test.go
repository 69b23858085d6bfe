package core

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"jigsaw/internal/rng"
)

// testMaster and testM name the global seed set the tests fingerprint
// against: σ0 … σ9 of master 0xABCDEF.
const (
	testMaster = 0xABCDEF
	testM      = 10
)

// gaussianBox builds a Func sampling N(mu, sigma^2) under the seed.
func gaussianBox(mu, sigma float64) Func {
	return func(seed uint64) float64 {
		return rng.New(seed).Normal(mu, sigma)
	}
}

func TestComputeDeterministic(t *testing.T) {
	f := gaussianBox(5, 2)
	a := Compute(f, testMaster, testM)
	b := Compute(f, testMaster, testM)
	if !slices.Equal(a, b) {
		t.Fatalf("fingerprint not deterministic: %v vs %v", a, b)
	}
	if len(a) != testM {
		t.Fatalf("fingerprint length = %d", len(a))
	}
}

func TestComputeIsAffineAcrossParams(t *testing.T) {
	// N(mu, sigma) = mu + sigma*Z with Z fixed per seed, so the
	// fingerprints of two Gaussian boxes are exact affine images.
	fp1 := Compute(gaussianBox(0, 1), testMaster, testM)
	fp2 := Compute(gaussianBox(10, 3), testMaster, testM)
	for k := range fp1 {
		want := 10 + 3*fp1[k]
		if math.Abs(fp2[k]-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("entry %d: got %g want %g", k, fp2[k], want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	fp := Fingerprint{1, 2, 3}
	c := fp.Clone()
	c[0] = 99
	if fp[0] != 1 {
		t.Fatal("Clone aliases receiver")
	}
}

func TestIsConstant(t *testing.T) {
	if !(Fingerprint{2, 2, 2}).IsConstant() {
		t.Fatal("constant fingerprint not detected")
	}
	if (Fingerprint{2, 2, 2.1}).IsConstant() {
		t.Fatal("non-constant fingerprint detected as constant")
	}
	if !(Fingerprint{1e12, 1e12 + 1e-3}).IsConstant() {
		t.Fatal("relative tolerance not applied at large magnitudes")
	}
	if !(Fingerprint{}).IsConstant() {
		t.Fatal("empty fingerprint not vacuously constant")
	}
}

func TestFirstTwoDistinct(t *testing.T) {
	i, j, ok := Fingerprint{5, 5, 5, 7, 9}.FirstTwoDistinct()
	if !ok || i != 0 || j != 3 {
		t.Fatalf("FirstTwoDistinct = (%d,%d,%v)", i, j, ok)
	}
	if _, _, ok := (Fingerprint{4, 4, 4}).FirstTwoDistinct(); ok {
		t.Fatal("constant fingerprint reported distinct entries")
	}
	if _, _, ok := (Fingerprint{}).FirstTwoDistinct(); ok {
		t.Fatal("empty fingerprint reported distinct entries")
	}
}

func TestApproxEqual(t *testing.T) {
	a := Fingerprint{1, 2, 3}
	if !a.ApproxEqual(Fingerprint{1, 2, 3 + 1e-12}) {
		t.Fatal("tiny perturbation rejected")
	}
	if a.ApproxEqual(Fingerprint{1, 2}) {
		t.Fatal("length mismatch accepted")
	}
	if a.ApproxEqual(Fingerprint{1, 2, 4}) {
		t.Fatal("different fingerprint accepted")
	}
	if a.ApproxEqual(Fingerprint{1, 2, math.NaN()}) {
		t.Fatal("NaN accepted")
	}
	inf := math.Inf(1)
	for _, tc := range []struct {
		a, b float64
		want bool
	}{
		{inf, inf, true},
		{-inf, -inf, true},
		{inf, -inf, false},
		{inf, 1, false},
		{-inf, 0, false},
		{math.MaxFloat64, inf, false},
	} {
		for _, pair := range [][2]float64{{tc.a, tc.b}, {tc.b, tc.a}} {
			if got := ApproxEqual(pair[0], pair[1]); got != tc.want {
				t.Errorf("ApproxEqual(%v, %v) = %v, want %v", pair[0], pair[1], got, tc.want)
			}
		}
	}
}

// TestApproxEqualBoundary pins the one equality rule every match
// uses, |a−b| ≤ DefaultTolerance·max(1,|a|,|b|), on both sides of its
// bound: absolute below magnitude 1, relative above it.
func TestApproxEqualBoundary(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b float64
		want bool
	}{
		{"signed zeros", 0, math.Copysign(0, -1), true},
		{"rounding noise", 1, 1 + 1e-12, true},
		{"one tolerance from zero", 0, DefaultTolerance, true},
		{"two tolerances from zero", 0, 2 * DefaultTolerance, false},
		{"1e-8 apart at 1", 1, 1 + 1e-8, false},
		{"relative at 1e6", 1e6, 1e6 + 1e-4, true},
		{"beyond relative at 1e6", 1e6, 1e6 + 1e-2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := ApproxEqual(tc.a, tc.b); got != tc.want {
				t.Errorf("ApproxEqual(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
			if got := ApproxEqual(tc.b, tc.a); got != tc.want {
				t.Errorf("ApproxEqual(%v, %v) = %v, want %v", tc.b, tc.a, got, tc.want)
			}
		})
	}
}

func TestMappedBy(t *testing.T) {
	fp := Fingerprint{0, 1, 2}
	got := fp.MappedBy(Linear{Alpha: 2, Beta: 1})
	want := Fingerprint{1, 3, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("MappedBy = %v, want %v", got, want)
	}
}

func TestFingerprintString(t *testing.T) {
	if s := (Fingerprint{1, 2}).String(); !strings.HasPrefix(s, "fp[") {
		t.Fatalf("String = %q", s)
	}
}

func TestLinearMappingBasics(t *testing.T) {
	m := Linear{Alpha: 2, Beta: -3}
	if m.Apply(5) != 7 {
		t.Fatalf("Apply = %g", m.Apply(5))
	}
	inv := m.Inverse()
	if got := inv.Apply(m.Apply(13.5)); math.Abs(got-13.5) > 1e-12 {
		t.Fatalf("inverse round trip = %g", got)
	}
	if !strings.Contains(m.String(), "2") {
		t.Fatalf("String = %q", m.String())
	}
}

func TestMappingConstructors(t *testing.T) {
	if Identity() != (Linear{Alpha: 1}) {
		t.Fatal("Identity not identity")
	}
	if Shift(4).Apply(1) != 5 {
		t.Fatal("Shift broken")
	}
}

func TestValidate(t *testing.T) {
	from := Fingerprint{0, 1, 2, 3}
	m := Linear{Alpha: 3, Beta: 1}
	to := from.MappedBy(m)
	if !Validate(m, from, to) {
		t.Fatal("valid mapping rejected")
	}
	to[2] += 0.5
	if Validate(m, from, to) {
		t.Fatal("invalid mapping accepted")
	}
	if Validate(m, from, to[:3]) {
		t.Fatal("length mismatch accepted")
	}
}

// Property: Validate accepts the exact image of any fingerprint under
// any linear map with reasonable coefficients.
func TestQuickValidateExactImages(t *testing.T) {
	f := func(seed uint64, alphaRaw, betaRaw int16) bool {
		alpha := float64(alphaRaw)/64 + 0.01 // avoid alpha == 0
		beta := float64(betaRaw) / 64
		fp := Compute(gaussianBox(1, 2), seed, 8)
		m := Linear{Alpha: alpha, Beta: beta}
		return Validate(m, fp, fp.MappedBy(m))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
