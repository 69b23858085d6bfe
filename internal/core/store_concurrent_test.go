package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// stressFingerprint builds the family-f fingerprint mapped by (alpha,
// beta): distinct families are not linearly relatable, members of one
// family are.
func stressFingerprint(family, m int, alpha, beta float64) Fingerprint {
	fp := make(Fingerprint, m)
	for k := range fp {
		base := float64(family*31) + float64(k) + float64((k*k*(family+3))%17)
		fp[k] = alpha*base + beta
	}
	return fp
}

// TestStoreConcurrentStress hammers one store with concurrent Add and
// Match from every index strategy; run under -race this is the store's
// concurrency guarantee. Invariants checked: dense unique IDs, every
// returned mapping valid, and every Match either hit or led to an Add.
func TestStoreConcurrentStress(t *testing.T) {
	// families stays below 17: the %17 term in stressFingerprint makes
	// family f and f+17 genuinely affine-related, which would merge
	// their bases and break the per-family accounting below.
	const (
		m        = 10
		families = 16
		rounds   = 200
	)
	indexes := map[string]func() Index{
		"array": func() Index { return NewArrayIndex() },
		"norm":  func() Index { return NewNormalizationIndex() },
		"sid":   func() Index { return NewSortedSIDIndex() },
	}
	for name, mk := range indexes {
		t.Run(name, func(t *testing.T) {
			store := NewStore(LinearClass{}, mk())
			workers := runtime.GOMAXPROCS(0) * 2
			if workers < 4 {
				workers = 4
			}
			var wg sync.WaitGroup
			var hits atomic.Int64
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						family := (w + i) % families
						alpha := 1 + float64((w*rounds+i)%7)
						beta := float64(i % 5)
						fp := stressFingerprint(family, m, alpha, beta)
						if b, mapping, ok, _ := store.Match(fp, nil, nil); ok {
							if !Validate(mapping, b.Fingerprint, fp) {
								errs <- fmt.Errorf("worker %d: invalid mapping %v returned for family %d", w, mapping, family)
								return
							}
							hits.Add(1)
							continue
						}
						if _, err := store.Add(fp, family); err != nil {
							errs <- fmt.Errorf("worker %d: Add: %v", w, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			bases := store.Bases()
			if len(bases) != store.Len() {
				t.Fatalf("Bases() length %d != Len() %d", len(bases), store.Len())
			}
			// Concurrent adds may create redundant bases per family, but
			// never more than one per (family, goroutine) in the worst
			// case — and IDs must be dense and consistent.
			if len(bases) < families {
				t.Fatalf("got %d bases, want at least one per family (%d)", len(bases), families)
			}
			for i, b := range bases {
				if b.ID != i {
					t.Fatalf("basis at position %d has ID %d", i, b.ID)
				}
				got, ok := store.Get(b.ID)
				if !ok || got != b {
					t.Fatalf("Get(%d) did not return the stored basis", b.ID)
				}
				if len(b.Fingerprint) != m {
					t.Fatalf("basis %d fingerprint length %d, want %d", b.ID, len(b.Fingerprint), m)
				}
			}
			if got := int(hits.Load()) + len(bases); got != workers*rounds {
				t.Fatalf("hits (%d) + bases (%d) != operations (%d): a Match neither hit nor led to Add",
					hits.Load(), len(bases), workers*rounds)
			}
		})
	}
}

// TestStoreShardRouting checks that every index routes a probe to its
// family: with many families stored, each affine image of a family
// member — increasing and decreasing — must match a basis through a
// valid mapping. A near-constant probe must find the identity match
// the array scan finds: the indexes detect constants and group ties
// by the same ApproxEqual the mapping class validates with.
func TestStoreShardRouting(t *testing.T) {
	for name, mk := range allIndexes() {
		t.Run(name, func(t *testing.T) {
			store := NewStore(LinearClass{}, mk())
			const families = 64
			for f := 0; f < families; f++ {
				if _, err := store.Add(stressFingerprint(f, 10, 1, 0), nil); err != nil {
					t.Fatal(err)
				}
			}
			for f := 0; f < families; f++ {
				for _, mapping := range []Linear{{Alpha: 2, Beta: 3}, {Alpha: -1.5, Beta: 7}} {
					probe := stressFingerprint(f, 10, mapping.Alpha, mapping.Beta)
					b, m, ok, _ := store.Match(probe, nil, nil)
					if !ok {
						t.Fatalf("family %d probe %v missed", f, mapping)
					}
					if !Validate(m, b.Fingerprint, probe) {
						t.Fatalf("family %d: invalid mapping %v", f, m)
					}
				}
			}
		})
	}
}

// TestStoreNearConstantProbe checks that every index agrees with the
// mapping class on near-constant fingerprints: a probe that differs
// from a constant basis only by rounding noise, in any position, is
// that constant, so every index must return the basis and the match
// must be the identity.
func TestStoreNearConstantProbe(t *testing.T) {
	const noise = 1e-12
	probes := map[string]Fingerprint{"exact": {5, 5, 5, 5}}
	for i := 0; i < 4; i++ {
		probe := Fingerprint{5, 5, 5, 5}
		probe[i] += noise
		probes[fmt.Sprintf("noise@%d", i)] = probe
	}
	for name, mk := range allIndexes() {
		t.Run(name, func(t *testing.T) {
			store := NewStore(LinearClass{}, mk())
			if _, err := store.Add(Fingerprint{5, 5, 5, 5}, nil); err != nil {
				t.Fatal(err)
			}
			for pname, probe := range probes {
				t.Run(pname, func(t *testing.T) {
					if _, m, ok, _ := store.Match(probe, nil, nil); !ok || m != Identity() {
						t.Fatalf("probe %v: mapping %v, ok=%v; want the identity", probe, m, ok)
					}
				})
			}
		})
	}
}
