package rng

// This file derives a block's sample seeds in bulk. Sample id k of
// master m is seeded by SampleSeed(m, k), the splitmix64 counter
// m + (k+1)γ put through the finalizer, so consecutive ids step the
// counter additively and a block's seeds cost one finalizer each. The
// PDB seeds its world generators this way (DESIGN.md, "Columnar PDB
// execution").

// smGamma is splitmix64's additive constant γ.
const smGamma = 0x9e3779b97f4a7c15

// smMix is the splitmix64 output finalizer applied to a raw counter
// state (Rand.Seed derives the word for counter seed+kγ as
// smMix(seed+kγ)).
func smMix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// FillSeeds writes the seeds of samples lo to lo+len(dst)−1 into dst:
// dst[i] = SampleSeed(master, lo+i). The splitmix64 counter is
// materialized once and stepped additively, so the per-seed cost is
// one finalizer.
func FillSeeds(master uint64, lo int, dst []uint64) {
	state := master + uint64(lo)*smGamma
	for i := range dst {
		state += smGamma
		dst[i] = smMix(state)
	}
}
