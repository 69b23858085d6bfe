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

// sampleSeedGolden pins SampleSeed for fixed (master, id) pairs, ids
// below and above a fingerprint length of 10. The values were
// recorded from the seed-set implementation SampleSeed replaced (a
// stored prefix of m seeds, then the closed form), so every stored
// answer keyed by a sample seed still draws the same sample.
var sampleSeedGolden = []struct {
	master uint64
	id     int
	seed   uint64
}{
	{0x0, 0, 0xe220a8397b1dcdaf},
	{0x0, 1, 0x6e789e6aa1b965f4},
	{0x0, 9, 0xf3b8488c368cb0a6},
	{0x0, 10, 0x657eecdd3cb13d09},
	{0x0, 11, 0xc2d326e0055bdef6},
	{0x0, 999, 0x14e0abb2bfcf7c3e},
	{0x0, 123456, 0xffa63c58868826a1},
	{0x2a, 0, 0xbdd732262feb6e95},
	{0x2a, 1, 0x28efe333b266f103},
	{0x2a, 9, 0x9e54d738297f77ae},
	{0x2a, 10, 0x3474724a775b19bf},
	{0x2a, 11, 0x7e348a0e451650be},
	{0x2a, 999, 0x66091ca85313fa68},
	{0x2a, 123456, 0xeb4a9292eae31d06},
	{0x5161, 0, 0xeac5d5e9a1c78968},
	{0x5161, 1, 0xc41a4806d4ddbc97},
	{0x5161, 9, 0xf65657179957ec23},
	{0x5161, 10, 0xb413e788d473c3c9},
	{0x5161, 11, 0x98635d1aee342623},
	{0x5161, 999, 0x8889cc377e7e45d0},
	{0x5161, 123456, 0xd504ed7426bcb4e9},
	{0xdeadbeefcafef00d, 0, 0x901d4f652fb472cb},
	{0xdeadbeefcafef00d, 1, 0xa7ce246440f74527},
	{0xdeadbeefcafef00d, 9, 0xaf37028b26c31cdc},
	{0xdeadbeefcafef00d, 10, 0x82464fad85d028d0},
	{0xdeadbeefcafef00d, 11, 0xf3173c6ef7a844af},
	{0xdeadbeefcafef00d, 999, 0xa3220f51953df2cf},
	{0xdeadbeefcafef00d, 123456, 0xb338560f7c07167e},
}

func TestSampleSeedGolden(t *testing.T) {
	for _, g := range sampleSeedGolden {
		if got := SampleSeed(g.master, g.id); got != g.seed {
			t.Errorf("SampleSeed(%#x, %d) = %#x, want %#x", g.master, g.id, got, g.seed)
		}
	}
}

// TestSampleSeedIsSplitmixStream checks the O(1) closed form against
// the definitional splitmix64 walk from master, at every id up to one
// far beyond any fingerprint prefix.
func TestSampleSeedIsSplitmixStream(t *testing.T) {
	for _, master := range []uint64{0, 55, 0xABCD} {
		sm := master
		for id := 0; id <= 100000; id++ {
			if want := splitmix64(&sm); SampleSeed(master, id) != want {
				t.Fatalf("SampleSeed(%#x, %d) = %#x, want %#x", master, id, SampleSeed(master, id), want)
			}
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
