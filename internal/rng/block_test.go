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
	set, err := NewSeedSet(0xb10c, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := set.Stream(0xb10c)
	out := make([]uint64, n)
	for i := range out {
		out[i] = st.Next()
	}
	return out
}

func TestFillSeedsMatchesStream(t *testing.T) {
	set := MustSeedSet(0x5161, 10)
	for _, n := range blockSizes {
		for _, skip := range []int{0, 3, 10, 17} {
			ref := set.Stream(0x5161)
			ref.Skip(skip)
			want := make([]uint64, n)
			for i := range want {
				want[i] = ref.Next()
			}

			st := set.Stream(0x5161)
			st.Skip(skip)
			got := make([]uint64, n)
			st.FillSeeds(got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d skip=%d: seed %d = %#x, want %#x", n, skip, i, got[i], want[i])
				}
			}
			if st.Pos() != skip+n {
				t.Fatalf("n=%d skip=%d: cursor at %d, want %d", n, skip, st.Pos(), skip+n)
			}
		}
	}
}

func TestFillSeedsChunkingInvariant(t *testing.T) {
	// Splitting one FillSeeds call into arbitrary chunks yields the
	// same seed sequence — the property the engine's block loop
	// relies on when the block size does not divide the sample count.
	set := MustSeedSet(0x77, 4)
	whole := make([]uint64, 100)
	st := set.Stream(0x77)
	st.FillSeeds(whole)
	for _, chunk := range []int{1, 3, 32, 99} {
		got := make([]uint64, 100)
		st := set.Stream(0x77)
		for lo := 0; lo < len(got); lo += chunk {
			hi := lo + chunk
			if hi > len(got) {
				hi = len(got)
			}
			st.FillSeeds(got[lo:hi])
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
	set := MustSeedSet(0x5161, 10)
	buf := make([]uint64, 256)
	allocs := testing.AllocsPerRun(20, func() {
		st := set.Stream(0x5161)
		st.FillSeeds(buf)
		FillNormalVar(out, 30, 3, seeds)
	})
	if allocs != 0 {
		t.Errorf("block fillers allocate %.1f per block, want 0", allocs)
	}
}

func BenchmarkFillNormal(b *testing.B) {
	set := MustSeedSet(0x5161, 10)
	seeds := make([]uint64, 1000)
	st := set.Stream(0x5161)
	st.FillSeeds(seeds)
	out := make([]float64, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FillNormal(out, 30, 1.73, seeds)
	}
}

func BenchmarkScalarNormalReseed(b *testing.B) {
	set := MustSeedSet(0x5161, 10)
	seeds := make([]uint64, 1000)
	st := set.Stream(0x5161)
	st.FillSeeds(seeds)
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
	set := MustSeedSet(0x5161, 10)
	buf := make([]uint64, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := set.Stream(0x5161)
		st.FillSeeds(buf)
	}
}
