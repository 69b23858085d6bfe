package rng

import (
	"math"
	"testing"
)

// The block fillers' contract is bit-identity with the scalar
// generator: a block boundary must never change a sampled value.
// Every test here compares filler output word-for-word against the
// equivalent reseed-per-sample scalar loop.

var blockSizes = []int{1, 7, 64, 1000}

func testSeeds(t *testing.T, n int) []uint64 {
	t.Helper()
	out := make([]uint64, n)
	FillSeeds(0xb10c, 0, out)
	return out
}

// TestFillSeedsMatchesSampleSeed checks FillSeeds(master, lo, dst)
// against SampleSeed at every lo of a range that spans a fingerprint
// prefix, for several block lengths.
func TestFillSeedsMatchesSampleSeed(t *testing.T) {
	for _, n := range blockSizes {
		got := make([]uint64, n)
		for lo := 0; lo < 40; lo++ {
			FillSeeds(0x5161, lo, got)
			for i := range got {
				if want := SampleSeed(0x5161, lo+i); got[i] != want {
					t.Fatalf("n=%d lo=%d: seed %d = %#x, want %#x", n, lo, i, got[i], want)
				}
			}
		}
	}
}

func TestFillSeedsChunkingInvariant(t *testing.T) {
	// Splitting one FillSeeds call into arbitrary chunks yields the
	// same seed sequence — the property the engine's block loop
	// relies on when the block size does not divide the sample count.
	whole := make([]uint64, 100)
	FillSeeds(0x77, 0, whole)
	for _, chunk := range []int{1, 3, 32, 99, 100} {
		got := make([]uint64, 100)
		for lo := 0; lo < len(got); lo += chunk {
			FillSeeds(0x77, lo, got[lo:min(lo+chunk, len(got))])
		}
		for i := range whole {
			if got[i] != whole[i] {
				t.Fatalf("chunk=%d: seed %d = %#x, want %#x", chunk, i, got[i], whole[i])
			}
		}
	}
}

func TestFillNormalBitIdentical(t *testing.T) {
	var r Rand
	for _, n := range blockSizes {
		seeds := testSeeds(t, n)
		for _, c := range []struct{ mu, sigma float64 }{
			{0, 1}, {30, 1.7320508075688772}, {-4, 0}, {1e6, 1e-3},
		} {
			got := make([]float64, n)
			FillNormal(got, c.mu, c.sigma, seeds)
			for i, seed := range seeds {
				r.Seed(seed)
				want := r.Normal(c.mu, c.sigma)
				if got[i] != want && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
					t.Fatalf("n=%d mu=%g sigma=%g sample %d: block %v, scalar %v",
						n, c.mu, c.sigma, i, got[i], want)
				}
			}
		}
	}
}

func TestFillNormalVarBitIdentical(t *testing.T) {
	var r Rand
	seeds := testSeeds(t, 512)
	for _, c := range []struct{ mu, variance float64 }{
		{0, 1}, {30, 3}, {-2, 0}, {5, 0.1},
	} {
		got := make([]float64, len(seeds))
		FillNormalVar(got, c.mu, c.variance, seeds)
		for i, seed := range seeds {
			r.Seed(seed)
			if want := r.NormalVar(c.mu, c.variance); got[i] != want {
				t.Fatalf("mu=%g var=%g sample %d: block %v, scalar %v", c.mu, c.variance, i, got[i], want)
			}
		}
	}
}

func TestFillersPanicLikeScalars(t *testing.T) {
	seeds := []uint64{1}
	out := make([]float64, 1)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("FillNormal(sigma<0)", func() { FillNormal(out, 0, -1, seeds) })
	expectPanic("FillNormalVar(var<0)", func() { FillNormalVar(out, 0, -1, seeds) })
	expectPanic("FillNormal(len mismatch)", func() { FillNormal(make([]float64, 2), 0, 1, seeds) })
}

func TestBlockFillersAllocFree(t *testing.T) {
	seeds := testSeeds(t, 256)
	out := make([]float64, 256)
	buf := make([]uint64, 256)
	allocs := testing.AllocsPerRun(20, func() {
		FillSeeds(0x5161, 10, buf)
		FillNormalVar(out, 30, 3, seeds)
	})
	if allocs != 0 {
		t.Errorf("block fillers allocate %.1f per block, want 0", allocs)
	}
}

func BenchmarkFillNormal(b *testing.B) {
	seeds := make([]uint64, 1000)
	FillSeeds(0x5161, 0, seeds)
	out := make([]float64, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FillNormal(out, 30, 1.73, seeds)
	}
}

func BenchmarkScalarNormalReseed(b *testing.B) {
	seeds := make([]uint64, 1000)
	FillSeeds(0x5161, 0, seeds)
	out := make([]float64, 1000)
	var r Rand
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k, seed := range seeds {
			r.Seed(seed)
			out[k] = r.Normal(30, 1.73)
		}
	}
}

func BenchmarkFillSeeds(b *testing.B) {
	buf := make([]uint64, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FillSeeds(0x5161, 0, buf)
	}
}
