package core

import (
	"math"
	"testing"
	"testing/quick"
)

func containsID(ids []int, id int) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// indexUnderTest builds each strategy fresh for table-driven tests.
func allIndexes() map[string]func() Index {
	return map[string]func() Index{
		"array": func() Index { return NewArrayIndex() },
		"norm":  func() Index { return NewNormalizationIndex() },
		"sid":   func() Index { return NewSortedSIDIndex() },
	}
}

func TestIndexNoFalseNegativesUnderLinearMaps(t *testing.T) {
	// The index contract (§3.2): candidates must contain every basis
	// that the mapping class can map onto the probe.
	base := Compute(gaussianBox(2, 1), testMaster, testM)
	maps := []Linear{
		Identity(), Shift(5), {Alpha: 3}, {Alpha: -2, Beta: 7}, {Alpha: 0.001, Beta: -4},
	}
	for name, mk := range allIndexes() {
		idx := mk()
		idx.Insert(0, base)
		for _, m := range maps {
			probe := base.MappedBy(m)
			if !containsID(idx.Candidates(probe, nil), 0) {
				t.Errorf("%s: mapped probe %v missed basis", name, m)
			}
		}
		if idx.Len() != 1 {
			t.Errorf("%s: Len = %d", name, idx.Len())
		}
	}
}

func TestIndexSelectivity(t *testing.T) {
	// Hash-based indexes must prune unrelated fingerprints; the array
	// index by design does not.
	a := Fingerprint{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := Fingerprint{1, 4, 9, 16, 25, 36, 49, 64, 81, 100} // not linear in a
	norm := NewNormalizationIndex()
	norm.Insert(0, a)
	if containsID(norm.Candidates(b, nil), 0) {
		t.Error("normalization index returned unrelated candidate")
	}
	// b is monotone in a, so SID keys collide — that is the documented
	// false-positive mode of SID indexing, discarded by FindMapping.
	sid := NewSortedSIDIndex()
	shuffled := Fingerprint{3, 1, 4, 1.5, 9, 2.6, 5.3, 5.8, 9.7, 9.3}
	sid.Insert(0, a)
	if containsID(sid.Candidates(shuffled, nil), 0) {
		t.Error("SID index returned candidate with different ordering")
	}
}

func TestNormalizationConstantBucket(t *testing.T) {
	idx := NewNormalizationIndex()
	idx.Insert(0, Fingerprint{5, 5, 5})
	// Equal constants share a bucket (the only constants a sound
	// mapping class can relate)…
	if !containsID(idx.Candidates(Fingerprint{5, 5, 5}, nil), 0) {
		t.Fatal("equal constants should share a bucket")
	}
	// …distinct constants do not (keeps boolean-output models from
	// piling into one bucket).
	if containsID(idx.Candidates(Fingerprint{9, 9, 9}, nil), 0) {
		t.Fatal("distinct constants share a bucket")
	}
	if containsID(idx.Candidates(Fingerprint{9, 9, 10}, nil), 0) {
		t.Fatal("non-constant probe matched const bucket")
	}
}

func TestStoreSkipsConstantProbeUnderStrictClass(t *testing.T) {
	s := NewStore(LinearClass{StrictConstants: true}, NewArrayIndex())
	if _, err := s.Add(Fingerprint{0, 0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	for _, probe := range []Fingerprint{{0, 0, 0}, {}} {
		_, _, ok, n := s.Match(probe, nil, nil)
		if ok {
			t.Fatalf("strict class matched constant %v", probe)
		}
		if n != 0 {
			t.Fatalf("constant probe %v scanned %d candidates under strict class", probe, n)
		}
	}
}

func TestQuantize(t *testing.T) {
	pair := func(x float64) [2]int64 {
		m, e := quantize(x)
		return [2]int64{m, int64(e)}
	}
	if pair(0) != pair(math.Copysign(0, -1)) {
		t.Fatal("negative zero not collapsed")
	}
	if pair(1e-320) != pair(0) {
		t.Fatal("subnormal not collapsed to zero")
	}
	if pair(1.5) == pair(1.6) {
		t.Fatal("distinct values share quantization")
	}
	if pair(1.5) != pair(1.5+1e-12) {
		t.Fatal("rounding noise changed quantization")
	}
	if pair(1.5) == pair(-1.5) {
		t.Fatal("sign lost in quantization")
	}
	if pair(1.5) == pair(15) {
		t.Fatal("magnitude lost in quantization")
	}
	// Rounding at the decade boundary renormalizes to a canonical pair.
	if pair(0.99999995) != pair(1.0) {
		t.Fatalf("boundary rounding not canonical: %v vs %v", pair(0.99999995), pair(1.0))
	}
}

func TestQuantizeSixDigits(t *testing.T) {
	// The normalization index keys on 6 significant digits: values that
	// agree to 6 digits share a key, values that differ in the 6th do not.
	for _, tc := range []struct {
		a, b float64
		same bool
	}{
		{123456.1, 123456.4, true},
		{1.2345671, 1.2345674, true},
		{123456, 123457, false},
		{1.23456, 1.23457, false},
	} {
		ma, ea := quantize(tc.a)
		mb, eb := quantize(tc.b)
		if same := ma == mb && ea == eb; same != tc.same {
			t.Errorf("quantize(%v) = (%d,%d), quantize(%v) = (%d,%d); same = %v, want %v",
				tc.a, ma, ea, tc.b, mb, eb, same, tc.same)
		}
	}
}

func TestSortedSIDDecreasingMapping(t *testing.T) {
	base := Fingerprint{3, 1, 4, 1.5, 9}
	probe := base.MappedBy(Linear{Alpha: -2, Beta: 0})

	idx := NewSortedSIDIndex()
	idx.Insert(0, base)
	if !containsID(idx.Candidates(probe, nil), 0) {
		t.Fatal("SID index missed decreasing mapping")
	}
}

func TestSortedSIDTieGrouping(t *testing.T) {
	// ApproxEqual entries form a tie group, which must hash
	// identically regardless of the incidental order a sort would give
	// its members.
	idx := NewSortedSIDIndex()
	idx.Insert(0, Fingerprint{1, 1 + 1e-10, 2})
	if !containsID(idx.Candidates(Fingerprint{1 + 1e-10, 1, 2}, nil), 0) {
		t.Fatal("tie permutation changed SID key")
	}
	// Entries 1e-8 apart are no tie: their order is part of the key, so
	// swapping them yields a different key in both probe directions.
	idx.Insert(1, Fingerprint{1, 1 + 1e-8, 2})
	if containsID(idx.Candidates(Fingerprint{1 + 1e-8, 1, 2}, nil), 1) {
		t.Fatal("entries 1e-8 apart grouped as a tie")
	}
}

func TestArrayIndexReturnsAll(t *testing.T) {
	idx := NewArrayIndex()
	for i := 0; i < 5; i++ {
		idx.Insert(i, Fingerprint{float64(i)})
	}
	got := idx.Candidates(Fingerprint{42}, nil)
	if len(got) != 5 {
		t.Fatalf("array candidates = %v", got)
	}
	if idx.Name() != "Array" {
		t.Fatal("name broken")
	}
}

func TestIndexNames(t *testing.T) {
	if NewNormalizationIndex().Name() != "Normalization" {
		t.Fatal("normalization name")
	}
	if NewSortedSIDIndex().Name() != "SortedSID" {
		t.Fatal("SID name")
	}
}

// Property: for arbitrary Gaussian fingerprints and arbitrary affine
// maps, both hash indexes retrieve the inserted basis (no false
// negatives). This is the invariant that keeps indexed Jigsaw exactly
// as accurate as array-scan Jigsaw.
func TestQuickIndexCompleteness(t *testing.T) {
	f := func(seed uint64, alphaRaw, betaRaw int16) bool {
		alpha := float64(alphaRaw)/128 + 0.0078125
		if alpha == 0 {
			return true
		}
		beta := float64(betaRaw) / 64
		fp := Compute(gaussianBox(1, 2), seed, 10)
		probe := fp.MappedBy(Linear{Alpha: alpha, Beta: beta})

		norm := NewNormalizationIndex()
		norm.Insert(7, fp)
		if !containsID(norm.Candidates(probe, nil), 7) {
			return false
		}
		sid := NewSortedSIDIndex()
		sid.Insert(7, fp)
		return containsID(sid.Candidates(probe, nil), 7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
