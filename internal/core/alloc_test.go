package core

import (
	"testing"
)

// The §3.2 indexes are probed once per parameter point; the whole
// point of the binary-key redesign is that a probe costs a hash, not
// an allocation. These regression tests pin that property — if a
// change reintroduces string keys or defensive copies, they fail.

func TestCandidatesZeroAlloc(t *testing.T) {
	base := Fingerprint{3, 1, 4, 1.5, 9, 2.6, 5.3, 5.8, 9.7, 9.3}
	probe := base.MappedBy(Linear{Alpha: 2, Beta: -1})
	for name, mk := range allIndexes() {
		idx := mk()
		idx.Insert(0, base)
		buf := make([]int, 0, 16)
		allocs := testing.AllocsPerRun(100, func() {
			buf = buf[:0]
			buf = idx.Candidates(probe, buf)
		})
		if allocs != 0 {
			t.Errorf("%s: Candidates allocates %.1f per probe, want 0", name, allocs)
		}
	}
}

func TestMatchWithScratchZeroAlloc(t *testing.T) {
	// A warm Match probe with caller-owned scratch — hash,
	// candidate scan, mapping discovery and validation — allocates
	// nothing: the mapping comes back by value.
	for name, mk := range map[string]func() Index{
		"norm": func() Index { return NewNormalizationIndex() },
		"sid":  func() Index { return NewSortedSIDIndex() },
	} {
		s := NewStore(LinearClass{}, mk())
		base := Fingerprint{3, 1, 4, 1.5, 9, 2.6, 5.3, 5.8, 9.7, 9.3}
		if _, err := s.Add(base, nil); err != nil {
			t.Fatal(err)
		}
		probe := base.MappedBy(Linear{Alpha: 2, Beta: -1})
		var scratch ProbeScratch
		// Warm the scratch buffer.
		if _, _, ok, _ := s.Match(probe, nil, &scratch); !ok {
			t.Fatalf("%s: probe did not match", name)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, ok, _ := s.Match(probe, nil, &scratch); !ok {
				t.Fatal("probe did not match")
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm match allocates %.1f per probe, want 0", name, allocs)
		}
	}
}
