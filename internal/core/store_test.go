package core

import (
	"errors"
	"math"
	"testing"
)

func TestStoreAddAndMatch(t *testing.T) {
	s := NewStore(LinearClass{}, NewArrayIndex())
	base := Compute(gaussianBox(0, 1), testMaster, testM)
	b, err := s.Add(base, "metrics-p0")
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != 0 || s.Len() != 1 {
		t.Fatalf("basis id/len = %d/%d", b.ID, s.Len())
	}

	probe := Compute(gaussianBox(4, 2.5), testMaster, testM)
	got, m, ok, _ := s.Match(probe, nil, nil)
	if !ok {
		t.Fatal("affinely related fingerprint did not match")
	}
	if got.ID != b.ID {
		t.Fatalf("matched basis %d, want %d", got.ID, b.ID)
	}
	alpha, beta := m.Alpha, m.Beta
	if math.Abs(alpha-2.5) > 1e-6 || math.Abs(beta-4) > 1e-6 {
		t.Fatalf("mapping = %v, want 2.5x+4", m)
	}
	if got.Payload.(string) != "metrics-p0" {
		t.Fatal("payload lost")
	}
}

func TestStoreMissThenAdd(t *testing.T) {
	s := NewStore(LinearClass{}, NewNormalizationIndex())
	fpA := Fingerprint{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
	fpB := Fingerprint{1, 4, 9, 16, 25, 36, 49, 64, 81, 100}
	if _, err := s.Add(fpA, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := s.Match(fpB, nil, nil); ok {
		t.Fatal("unrelated fingerprint matched")
	}
	if _, err := s.Add(fpB, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := s.Match(fpB.MappedBy(Shift(3)), nil, nil); !ok {
		t.Fatal("shifted copy of B did not match after Add")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestStoreFingerprintLengthEnforced(t *testing.T) {
	s := NewStore(LinearClass{}, nil)
	if _, err := s.Add(Fingerprint{1, 2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	_, err := s.Add(Fingerprint{1, 2}, nil)
	if !errors.Is(err, ErrFingerprintLength) {
		t.Fatalf("err = %v, want ErrFingerprintLength", err)
	}
	if _, err := s.Add(Fingerprint{}, nil); err == nil {
		t.Fatal("empty fingerprint accepted")
	}
	// Wrong-length probes must miss, not panic.
	if _, _, ok, _ := s.Match(Fingerprint{1, 2}, nil, nil); ok {
		t.Fatal("wrong-length probe matched")
	}
}

func TestStoreGet(t *testing.T) {
	s := NewStore(LinearClass{}, nil)
	b, _ := s.Add(Fingerprint{1, 2}, 42)
	got, ok := s.Get(b.ID)
	if !ok || got.Payload.(int) != 42 {
		t.Fatal("Get broken")
	}
	if _, ok := s.Get(-1); ok {
		t.Fatal("Get(-1) succeeded")
	}
	if _, ok := s.Get(7); ok {
		t.Fatal("Get past end succeeded")
	}
	if len(s.Bases()) != 1 {
		t.Fatal("Bases length wrong")
	}
}

func TestStoreMatchPrefersValidatedCandidate(t *testing.T) {
	// With the SID index, a monotone-but-not-linear basis shares the
	// probe's bucket; FindMapping must reject it and fall through to
	// the genuinely linear basis.
	s := NewStore(LinearClass{}, NewSortedSIDIndex())
	monotone := Fingerprint{1, 2, 4, 8, 16}
	linearBase := Fingerprint{1, 2, 3, 4, 5}
	if _, err := s.Add(monotone, nil); err != nil {
		t.Fatal(err)
	}
	lin, err := s.Add(linearBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe := linearBase.MappedBy(Linear{Alpha: 2, Beta: 1})
	b, _, ok, n := s.Match(probe, nil, nil)
	if !ok {
		t.Fatal("no match found")
	}
	if b != lin {
		t.Fatalf("matched basis %d, want the linear basis %d", b.ID, lin.ID)
	}
	if n < 2 {
		t.Fatalf("expected the false positive to be scanned, scanned %d", n)
	}
}

func TestStoreMatchRejectsInfiniteMismatch(t *testing.T) {
	// An infinite entry equals only the same infinity: neither an
	// identity nor an affine map may relate it to −Inf, a finite value
	// or zero. The array index hands every basis to mapping discovery,
	// so only the mapping class stands between probe and basis.
	inf := math.Inf(1)
	for _, tc := range []struct {
		basis, probe Fingerprint
	}{
		{Fingerprint{inf, 1, 2, 3}, Fingerprint{-inf, inf, 1, 2}},               // via the identity
		{Fingerprint{1, inf, 2, 3}, Fingerprint{0, math.Copysign(0, -1), 1, 2}}, // via x − 1
	} {
		s := NewStore(LinearClass{}, NewArrayIndex())
		if _, err := s.Add(tc.basis, nil); err != nil {
			t.Fatal(err)
		}
		if _, m, ok, _ := s.Match(tc.probe, nil, nil); ok {
			t.Errorf("probe %v matched basis %v through %v", tc.probe, tc.basis, m)
		}
	}
}

func TestStoreMatchEmpty(t *testing.T) {
	s := NewStore(LinearClass{}, nil)
	if _, _, ok, _ := s.Match(Fingerprint{1, 2, 3}, nil, nil); ok {
		t.Fatal("empty store matched")
	}
}
