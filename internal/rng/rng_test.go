package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedIndependence(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical 64-bit outputs of %d", same, n)
	}
}

func TestReseedResetsStream(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("reseed did not reset stream at %d", i)
		}
	}
}

func TestReseedClearsGaussCache(t *testing.T) {
	r := New(3)
	_ = r.StdNormal() // populates the cached second variate
	r.Seed(3)
	a := r.StdNormal()
	r.Seed(3)
	b := r.StdNormal()
	if a != b {
		t.Fatalf("gauss cache leaked across reseed: %g != %g", a, b)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestSeedSetStable(t *testing.T) {
	a := MustSeedSet(1234, 10)
	b := MustSeedSet(1234, 10)
	for i := 0; i < 10; i++ {
		if a.Seed(i) != b.Seed(i) {
			t.Fatalf("seed set not deterministic at %d", i)
		}
	}
}

func TestSeedSetPrefixProperty(t *testing.T) {
	small := MustSeedSet(55, 10)
	big := MustSeedSet(55, 100)
	for i := 0; i < 10; i++ {
		if small.Seed(i) != big.Seed(i) {
			t.Fatalf("prefix property violated at %d", i)
		}
	}
}

func TestSeedSetErrors(t *testing.T) {
	if _, err := NewSeedSet(1, 0); err == nil {
		t.Fatal("NewSeedSet(1,0) did not error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Seed out of range did not panic")
		}
	}()
	MustSeedSet(1, 3).Seed(3)
}

func TestSampleSeedMatchesStream(t *testing.T) {
	s := MustSeedSet(777, 10)
	// Fingerprint prefix.
	for i := 0; i < 10; i++ {
		if s.SampleSeed(777, i) != s.Seed(i) {
			t.Fatalf("SampleSeed(%d) != fingerprint seed", i)
		}
	}
	// Tail must match StreamSeeds.
	stream := s.StreamSeeds(777, 64)
	for i := 10; i < 64; i++ {
		if s.SampleSeed(777, i) != stream[i] {
			t.Fatalf("SampleSeed(%d) disagrees with StreamSeeds", i)
		}
	}
}

func TestStreamSeedsPrefixIsFingerprint(t *testing.T) {
	s := MustSeedSet(777, 10)
	stream := s.StreamSeeds(777, 5)
	for i := range stream {
		if stream[i] != s.Seed(i) {
			t.Fatalf("StreamSeeds prefix mismatch at %d", i)
		}
	}
}

// Property: for any seed, the generator stream restarted from the same
// seed is identical (testing/quick drives the seed space).
func TestQuickStreamDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 64; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinHelper(t *testing.T) {
	if min(2, 3) != 2 || min(3, 2) != 2 || min(-1, 1) != -1 {
		t.Fatal("min helper broken")
	}
}

func TestNormalMomentsAndDeterminism(t *testing.T) {
	r := New(2024)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Normal(3, 2)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-3) > 0.02 {
		t.Fatalf("Normal mean = %g, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Fatalf("Normal variance = %g, want ~4", variance)
	}
}

func TestSeedStreamMatchesSampleSeed(t *testing.T) {
	s := MustSeedSet(777, 10)
	st := s.Stream(777)
	for i := 0; i < 64; i++ {
		if got := st.Next(); got != s.SampleSeed(777, i) {
			t.Fatalf("stream id %d disagrees with SampleSeed", i)
		}
	}
}

func TestSeedStreamSkip(t *testing.T) {
	s := MustSeedSet(99, 10)
	// Skipping k ids must land exactly where k Next calls would.
	for _, k := range []int{0, 1, 5, 10, 37, 1000} {
		skipped := s.Stream(99)
		skipped.Skip(k)
		if skipped.Pos() != k {
			t.Fatalf("Skip(%d): Pos = %d", k, skipped.Pos())
		}
		walked := s.Stream(99)
		for i := 0; i < k; i++ {
			walked.Next()
		}
		if a, b := skipped.Next(), walked.Next(); a != b {
			t.Fatalf("Skip(%d) diverges from %d Next calls: %x vs %x", k, k, a, b)
		}
	}
}

func TestSeedStreamZeroAlloc(t *testing.T) {
	s := MustSeedSet(5, 10)
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		st := s.Stream(5)
		st.Skip(10)
		for i := 0; i < 100; i++ {
			sink ^= st.Next()
		}
	})
	if allocs != 0 {
		t.Fatalf("SeedStream allocates %.1f per 100 seeds, want 0", allocs)
	}
	_ = sink
}

func TestSampleSeedConstantTime(t *testing.T) {
	// The O(1) closed form must agree with the definitional splitmix64
	// walk for ids far beyond the fingerprint prefix.
	s := MustSeedSet(0xABCD, 4)
	sm := uint64(0xABCD)
	var want uint64
	const id = 100000
	for i := 0; i <= id; i++ {
		want = splitmix64(&sm)
	}
	if got := s.SampleSeed(0xABCD, id); got != want {
		t.Fatalf("SampleSeed(%d) = %x, want %x", id, got, want)
	}
}
