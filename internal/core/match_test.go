package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// Tests for Store.Match's scan accounting and a fuzz target for its
// contract on adversarial fingerprints (NaN, ±Inf, −0, subnormals).

// matchFamily returns the k-th member of an affine family derived from
// base: alternating-sign α so the SortedSID index exercises both the
// forward and reversed probe.
func matchFamily(base Fingerprint, k int) Fingerprint {
	alpha := 1.0 + 0.5*float64(k)
	if k%2 == 1 {
		alpha = -alpha
	}
	beta := 3.0 * float64(k)
	out := make(Fingerprint, len(base))
	for i, v := range base {
		out[i] = alpha*v + beta
	}
	return out
}

func matchBase(seed float64) Fingerprint {
	base := make(Fingerprint, 10)
	for i := range base {
		base[i] = seed + float64(i*i)*0.37 + float64(i)*seed*0.11
	}
	return base
}

// countingAccept returns an accept filter that admits every basis and
// counts its calls: with nothing rejected, every call is one
// mapping-discovery attempt, an independent tally of the scan count
// Match must report.
func countingAccept(calls *int) func(*Basis) bool {
	return func(*Basis) bool {
		*calls++
		return true
	}
}

func TestMatchScannedCountsAcceptedCandidates(t *testing.T) {
	for name, mk := range allIndexes() {
		t.Run(name, func(t *testing.T) {
			s := NewStore(LinearClass{}, mk())
			baseA, baseB := matchBase(1.0), matchBase(-7.3)
			for k := 0; k < 3; k++ {
				if _, err := s.Add(matchFamily(baseA, k), k); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Add(matchFamily(baseB, 0), 99); err != nil {
				t.Fatal(err)
			}

			probes := []Fingerprint{
				matchFamily(baseA, 7), // hit, α>0
				matchFamily(baseA, 8), // hit
				matchFamily(baseB, 3), // hit in the second family, α<0
				matchBase(42.0),       // miss
				make(Fingerprint, 10), // constant zero probe
			}
			var sc ProbeScratch
			for pi, probe := range probes {
				calls := 0
				sb, sm, sok, scanned := s.Match(probe, countingAccept(&calls), &sc)
				pb, pm, pok, _ := s.Match(probe, nil, nil)
				if sok != pok || sb != pb || fmt.Sprint(sm) != fmt.Sprint(pm) {
					t.Fatalf("probe %d: with scratch (%v,%v,%v) != without (%v,%v,%v)",
						pi, sb, sm, sok, pb, pm, pok)
				}
				if scanned != calls {
					t.Fatalf("probe %d: Match reported %d scans, accept saw %d candidates", pi, scanned, calls)
				}
			}
		})
	}
}

// decodeFuzzFingerprints turns fuzz bytes into two fingerprints of one
// length in [2, 12]. Each entry starts with a tag byte choosing NaN,
// ±Inf, −0, a subnormal, a small integer (so affinely related pairs
// are common) or raw float64 bits; missing bytes decode as zeros.
func decodeFuzzFingerprints(data []byte) (a, b Fingerprint) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	entry := func() float64 {
		switch next() % 8 {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		case 3:
			return math.Copysign(0, -1)
		case 4:
			return math.SmallestNonzeroFloat64 * float64(next()+1)
		case 5, 6:
			return float64(int8(next()))
		default:
			var raw [8]byte
			for i := range raw {
				raw[i] = next()
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
		}
	}
	m := 2 + int(next()%11)
	a, b = make(Fingerprint, m), make(Fingerprint, m)
	for k := range a {
		a[k] = entry()
	}
	for k := range b {
		b[k] = entry()
	}
	return a, b
}

// encodeFuzzFingerprints is the inverse of decodeFuzzFingerprints for
// seeding the corpus: every entry as raw float64 bits.
func encodeFuzzFingerprints(a, b Fingerprint) []byte {
	data := []byte{byte(len(a) - 2)}
	for _, v := range append(a.Clone(), b...) {
		data = append(data, 7)
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
	}
	return data
}

func isFinite(fp Fingerprint) bool {
	for _, v := range fp {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// FuzzStoreMatch checks Store.Match's contract on every index and both
// constant policies: no panic; the scan count equals the candidates
// the accept filter admitted and never exceeds the store's size; a
// returned mapping has a finite, non-zero α, a finite β and finite
// inverse coefficients, and carries the basis fingerprint onto the
// probe within tolerance; and a finite, non-constant fingerprint always
// matches itself.
func FuzzStoreMatch(f *testing.F) {
	inf := math.Inf(1)
	f.Add(encodeFuzzFingerprints(Fingerprint{inf, 1, 2, 3}, Fingerprint{-inf, inf, 1, 2}))
	f.Add(encodeFuzzFingerprints(Fingerprint{1, inf, 2, 3}, Fingerprint{0, math.Copysign(0, -1), 1, 2}))
	f.Add(encodeFuzzFingerprints(matchBase(1), matchFamily(matchBase(1), 3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := decodeFuzzFingerprints(data)
		for name, mk := range allIndexes() {
			for _, class := range []LinearClass{{}, {StrictConstants: true}} {
				s := NewStore(class, mk())
				if _, err := s.Add(a, nil); err != nil {
					t.Fatal(err)
				}
				calls := 0
				basis, mapping, ok, scanned := s.Match(b, countingAccept(&calls), nil)
				if scanned != calls || scanned > s.Len() {
					t.Fatalf("%s %+v: scanned %d, accept admitted %d, store holds %d", name, class, scanned, calls, s.Len())
				}
				if ok {
					inv := mapping.Inverse()
					if mapping.Alpha == 0 || !isFinite(Fingerprint{mapping.Alpha, mapping.Beta, inv.Alpha, inv.Beta}) {
						t.Fatalf("%s %+v: mapping %v has no finite inverse (%v)", name, class, mapping, inv)
					}
					for k, v := range basis.Fingerprint {
						if !ApproxEqual(mapping.Apply(v), b[k]) {
							t.Fatalf("%s %+v: mapping %v sends %v to %v, probe has %v at %d",
								name, class, mapping, v, mapping.Apply(v), b[k], k)
						}
					}
				}
				if isFinite(a) && !a.IsConstant() {
					if _, _, ok, _ := s.Match(a, nil, nil); !ok {
						t.Fatalf("%s %+v: %v does not match itself", name, class, a)
					}
				}
			}
		}
	})
}
