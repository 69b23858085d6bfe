package rng

import "testing"

// FillSeeds' contract is identity with SampleSeed: a block boundary
// must never change a sample's seed.

var blockSizes = []int{1, 7, 64, 1000}

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

func TestBlockFillersAllocFree(t *testing.T) {
	buf := make([]uint64, 256)
	allocs := testing.AllocsPerRun(20, func() {
		FillSeeds(0x5161, 10, buf)
	})
	if allocs != 0 {
		t.Errorf("FillSeeds allocates %.1f per block, want 0", allocs)
	}
}

func BenchmarkFillSeeds(b *testing.B) {
	buf := make([]uint64, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FillSeeds(0x5161, 0, buf)
	}
}
