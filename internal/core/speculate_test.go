package core

import (
	"fmt"
	"math"
	"testing"
)

// Tests for the match view: recording a view must not change Match's
// answer, its scan total must count every mapping-discovery attempt
// (also past the view's capacity), ViewCurrent must detect exactly the
// insertions that could invalidate a speculation, and SigCandidates
// must enumerate the same candidates Candidates does (it is the
// store's no-rehash probe path).

// specIndexes enumerates the index strategies under test, fresh per
// call.
func specIndexes() map[string]func() Index {
	return map[string]func() Index{
		"array": func() Index { return NewArrayIndex() },
		"norm":  func() Index { return NewNormalizationIndex(6, DefaultTolerance) },
		"sid":   func() Index { return NewSortedSIDIndex(DefaultTolerance, true) },
	}
}

// specFamily returns the k-th member of an affine family derived from
// base: alternating-sign α so the SortedSID index exercises both the
// forward and reversed probe.
func specFamily(base Fingerprint, k int) Fingerprint {
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

func specBase(seed float64) Fingerprint {
	base := make(Fingerprint, 10)
	for i := range base {
		base[i] = seed + float64(i*i)*0.37 + float64(i)*seed*0.11
	}
	return base
}

// countingAccept returns an accept filter that admits every basis and
// counts its calls: with nothing rejected, every call is one
// mapping-discovery attempt, an independent tally of what
// MatchView.ScannedTotal must report.
func countingAccept(calls *int64) func(*Basis) bool {
	return func(*Basis) bool {
		*calls++
		return true
	}
}

func TestMatchViewAgreesWithPlainMatch(t *testing.T) {
	for name, mk := range specIndexes() {
		t.Run(name, func(t *testing.T) {
			s := NewStore(LinearClass{}, mk(), 0)
			baseA, baseB := specBase(1.0), specBase(-7.3)
			for k := 0; k < 3; k++ {
				if _, err := s.Add(specFamily(baseA, k), fmt.Sprintf("a%d", k), k); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Add(specFamily(baseB, 0), "b0", 99); err != nil {
				t.Fatal(err)
			}

			probes := []Fingerprint{
				specFamily(baseA, 7),  // hit, α>0
				specFamily(baseA, 8),  // hit
				specFamily(baseB, 3),  // hit in the second family, α<0
				specBase(42.0),        // miss
				make(Fingerprint, 10), // constant zero probe
			}
			var sc ProbeScratch
			for pi, probe := range probes {
				var view MatchView
				var calls int64
				vb, vm, vok := s.Match(probe, countingAccept(&calls), &sc, &view)
				if !s.ViewCurrent(&view) {
					t.Fatalf("probe %d: view stale immediately after the match", pi)
				}
				pb, pm, pok := s.Match(probe, nil, nil, nil)
				if vok != pok || vb != pb || fmt.Sprint(vm) != fmt.Sprint(pm) {
					t.Fatalf("probe %d: with view (%v,%v,%v) != plain (%v,%v,%v)",
						pi, vb, vm, vok, pb, pm, pok)
				}
				if got := view.ScannedTotal(); got != calls {
					t.Fatalf("probe %d: view recorded %d scans, accept saw %d candidates", pi, got, calls)
				}
				if vok != (view.HitProbe() >= 0) {
					t.Fatalf("probe %d: ok=%v but HitProbe=%d", pi, vok, view.HitProbe())
				}
			}
		})
	}
}

// fanoutIndex is a Sharder that probes more signatures than a
// MatchView tracks: every fingerprint is filed under one of fanout
// signatures chosen by its first entry, and every probe visits all of
// them. It exists to drive the view's overflow path, which no
// built-in index reaches.
type fanoutIndex struct {
	fanout  uint64
	buckets map[uint64][]int
	n       int
}

func newFanoutIndex(fanout uint64) *fanoutIndex {
	return &fanoutIndex{fanout: fanout, buckets: map[uint64][]int{}}
}

func (x *fanoutIndex) Insert(id int, fp Fingerprint) {
	sig := x.InsertSignature(fp)
	x.buckets[sig] = append(x.buckets[sig], id)
	x.n++
}

func (x *fanoutIndex) Candidates(fp Fingerprint, buf []int) []int {
	for _, sig := range x.ProbeSignatures(fp, nil) {
		buf = x.SigCandidates(sig, buf)
	}
	return buf
}

func (x *fanoutIndex) Len() int     { return x.n }
func (x *fanoutIndex) Name() string { return "Fanout" }
func (x *fanoutIndex) Fork() Index  { return newFanoutIndex(x.fanout) }

func (x *fanoutIndex) InsertSignature(fp Fingerprint) uint64 {
	return uint64(math.Abs(fp[0])) % x.fanout
}

func (x *fanoutIndex) ProbeSignatures(_ Fingerprint, buf []uint64) []uint64 {
	for sig := uint64(0); sig < x.fanout; sig++ {
		buf = append(buf, sig)
	}
	return buf
}

func (x *fanoutIndex) SigCandidates(sig uint64, buf []int) []int {
	return append(buf, x.buckets[sig]...)
}

func TestMatchViewScannedTotalBeyondCapacity(t *testing.T) {
	const fanout = matchViewProbes + 2
	s := NewStore(LinearClass{}, newFanoutIndex(fanout), 0)
	// One unrelated basis per signature, then the probe's own family
	// in the last signature — beyond the view's capacity — so a hit
	// scans every earlier group first.
	for sig := 0; sig < fanout; sig++ {
		base := specBase(float64(sig) + 0.25)
		if _, err := s.Add(base, fmt.Sprint(sig), sig); err != nil {
			t.Fatal(err)
		}
	}
	family := specBase(float64(fanout-1) + 0.5)
	if _, err := s.Add(family, "family", -1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		probe Fingerprint
		hit   bool
	}{
		{"hit", specFamily(family, 2), true},
		{"miss", specBase(99.0), false},
	} {
		var view MatchView
		var calls int64
		b, _, ok := s.Match(tc.probe, countingAccept(&calls), nil, &view)
		if ok != tc.hit || (ok && b.Label != "family") {
			t.Fatalf("%s: matched (%v, %v), want hit=%v on the family basis", tc.name, b, ok, tc.hit)
		}
		if !view.Overflow() {
			t.Fatalf("%s: %d probe signatures did not overflow a %d-group view", tc.name, fanout, matchViewProbes)
		}
		if got := view.ScannedTotal(); got != calls || calls < fanout {
			t.Fatalf("%s: view recorded %d scans, accept saw %d (want ≥ %d)", tc.name, got, calls, fanout)
		}
	}
}

func TestViewCurrentDetectsRelatedInsert(t *testing.T) {
	for name, mk := range specIndexes() {
		t.Run(name, func(t *testing.T) {
			s := NewStore(LinearClass{}, mk(), 0)
			baseA, baseB := specBase(1.0), specBase(-7.3)
			if _, err := s.Add(specFamily(baseA, 0), "a0", 0); err != nil {
				t.Fatal(err)
			}

			probe := specFamily(baseA, 5)
			var sc ProbeScratch
			var view MatchView
			if _, _, ok := s.Match(probe, nil, &sc, &view); !ok {
				t.Fatal("probe did not match its family")
			}

			// An insert in an unrelated family lands in another shard
			// (when the masked signatures differ) and must not
			// invalidate the view on sharded stores; the array index
			// has a single bucket, so any insert invalidates.
			if _, err := s.Add(specFamily(baseB, 0), "b0", 1); err != nil {
				t.Fatal(err)
			}
			sigA, shardedA := s.InsertSignature(specFamily(baseA, 1))
			sigB, _ := s.InsertSignature(specFamily(baseB, 1))
			if !shardedA {
				if s.ViewCurrent(&view) {
					t.Fatal("unsharded store: insert did not invalidate the view")
				}
			} else if sigA%uint64(s.Shards()) != sigB%uint64(s.Shards()) && !s.ViewCurrent(&view) {
				t.Fatal("sharded store: unrelated-shard insert invalidated the view")
			}

			// An insert in the probed family always invalidates.
			if _, err := s.Add(specFamily(baseA, 2), "a2", 2); err != nil {
				t.Fatal(err)
			}
			if s.ViewCurrent(&view) {
				t.Fatal("related insert left the view current")
			}
		})
	}
}

func TestViewStaticProbes(t *testing.T) {
	// Under a class that rejects constants, a constant probe is decided
	// without consulting the index: the view is static and stays
	// current across any insertion.
	s := NewStore(LinearClass{StrictConstants: true}, NewNormalizationIndex(6, DefaultTolerance), 0)
	if _, err := s.Add(specBase(1.0), "a", 0); err != nil {
		t.Fatal(err)
	}
	constant := make(Fingerprint, 10)
	for i := range constant {
		constant[i] = 4.5
	}
	var view MatchView
	if _, _, ok := s.Match(constant, nil, nil, &view); ok {
		t.Fatal("constant probe matched under StrictConstants")
	}
	if !view.Static() {
		t.Fatal("constant probe did not produce a static view")
	}
	if _, err := s.Add(specBase(2.0), "b", 1); err != nil {
		t.Fatal(err)
	}
	if !s.ViewCurrent(&view) {
		t.Fatal("static view invalidated by insert")
	}
}

func TestSigCandidatesMatchesCandidates(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Sharder
	}{
		{"norm", func() Sharder { return NewNormalizationIndex(6, DefaultTolerance) }},
		{"sid", func() Sharder { return NewSortedSIDIndex(DefaultTolerance, true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idx := tc.mk()
			baseA, baseB := specBase(1.0), specBase(-7.3)
			id := 0
			for k := 0; k < 4; k++ {
				idx.Insert(id, specFamily(baseA, k))
				id++
				idx.Insert(id, specFamily(baseB, k))
				id++
			}
			for _, probe := range []Fingerprint{
				specFamily(baseA, 9), specFamily(baseB, 6), specBase(3.3),
			} {
				direct := idx.Candidates(probe, nil)
				var bySig []int
				for _, sig := range idx.ProbeSignatures(probe, nil) {
					bySig = idx.SigCandidates(sig, bySig)
				}
				if fmt.Sprint(direct) != fmt.Sprint(bySig) {
					t.Fatalf("probe candidates diverge: Candidates=%v, SigCandidates=%v", direct, bySig)
				}
			}
		})
	}
}
