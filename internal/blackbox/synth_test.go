package blackbox

import (
	"slices"
	"testing"

	"jigsaw/internal/core"
	"jigsaw/internal/rng"
)

func fingerprintOf(b Box, args ...float64) core.Fingerprint {
	return core.Compute(func(seed uint64) float64 {
		return b.Eval(args, rng.New(seed))
	}, 0x5EED, 10)
}

func TestSynthBasisClassCount(t *testing.T) {
	// Exactly B basis distributions must arise from any stretch of
	// points: points within a class map linearly, across classes never.
	const B = 5
	s := NewSynthBasis(B)
	store := core.NewStore(core.LinearClass{}, core.NewArrayIndex())
	for p := 0; p < 200; p++ {
		fp := fingerprintOf(s, float64(p))
		if _, _, ok, _ := store.Match(fp, nil, nil); !ok {
			if _, err := store.Add(fp, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if store.Len() != B {
		t.Fatalf("basis count = %d, want %d", store.Len(), B)
	}
}

func TestSynthBasisWithinClassMapping(t *testing.T) {
	const B = 4
	s := NewSynthBasis(B)
	// Points 3 and 3+B share a class.
	fpA := fingerprintOf(s, 3)
	fpB := fingerprintOf(s, 3+B)
	if _, ok := (core.LinearClass{}).Find(fpA, fpB); !ok {
		t.Fatal("same-class points not linearly mappable")
	}
	// Points 3 and 4 are in different classes.
	fpC := fingerprintOf(s, 4)
	if _, ok := (core.LinearClass{}).Find(fpA, fpC); ok {
		t.Fatal("cross-class points unexpectedly mappable")
	}
}

func TestSynthBasisNegativePointsFold(t *testing.T) {
	s := NewSynthBasis(3)
	a := s.Eval([]float64{-4}, rng.New(9))
	b := s.Eval([]float64{4}, rng.New(9))
	if a != b {
		t.Fatalf("negative point not folded: %g vs %g", a, b)
	}
}

func TestSynthBasisPanicsOnZeroClasses(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSynthBasis(0) did not panic")
		}
	}()
	NewSynthBasis(0)
}

func TestMarkovStepBoxReleaseBranch(t *testing.T) {
	m := NewMarkovStepBox()
	// Released long ago vs unreleased must differ in expectation.
	var rel, unrel float64
	const n = 20000
	for i := 0; i < n; i++ {
		rel += m.Eval([]float64{40, 10}, rng.New(uint64(i)))
		unrel += m.Eval([]float64{40, 99}, rng.New(uint64(i)))
	}
	rel /= n
	unrel /= n
	if rel-unrel < 4 || rel-unrel > 8 {
		t.Fatalf("release lift = %g, want ~6", rel-unrel)
	}
}

func TestMarkovBranchIncrements(t *testing.T) {
	m := NewMarkovBranch(1)
	if got := m.Eval([]float64{5}, rng.New(1)); got != 6 {
		t.Fatalf("branching=1 step = %g, want 6", got)
	}
	m0 := NewMarkovBranch(0)
	if got := m0.Eval([]float64{5}, rng.New(1)); got != 5 {
		t.Fatalf("branching=0 step = %g, want 5", got)
	}
}

func TestMarkovBranchRate(t *testing.T) {
	m := NewMarkovBranch(0.3)
	inc := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if m.Eval([]float64{0}, rng.New(uint64(i))) == 1 {
			inc++
		}
	}
	rate := float64(inc) / n
	if rate < 0.28 || rate > 0.32 {
		t.Fatalf("increment rate = %g, want ~0.3", rate)
	}
}

func TestMarkovBranchWorkConsumesStream(t *testing.T) {
	// Work must change stream consumption but not the state logic.
	heavy := &MarkovBranch{Branching: 0, Work: 8}
	if got := heavy.Eval([]float64{2}, rng.New(3)); got != 2 {
		t.Fatalf("work-only step changed state: %g", got)
	}
}

func TestMarkovBranchPanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("branching > 1 did not panic")
		}
	}()
	NewMarkovBranch(1.5)
}

func TestSynthBasisFingerprintDeterminism(t *testing.T) {
	s := NewSynthBasis(7)
	a := fingerprintOf(s, 13)
	b := fingerprintOf(s, 13)
	if !slices.Equal(a, b) {
		t.Fatal("SynthBasis fingerprints not reproducible")
	}
}
