package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// This file implements the bulk sampling primitives behind the block
// pipeline (DESIGN.md, "Block-sampling pipeline"). The Monte Carlo
// engine's cold path draws every sample from a freshly seeded
// generator — sample id k uses seed σk — so a naive loop pays the full
// splitmix64 state derivation, the generator method dispatch and the
// distribution sampler's setup once per sample. The fillers below
// amortize all of that across a block: seeds are derived from the
// additive splitmix64 counter in one pass, the xoshiro256** state
// lives in registers instead of behind a pointer, and per-call
// invariants (σ = √variance, the scale of a uniform) are hoisted out
// of the loop.
//
// Every filler is bit-identical to its scalar counterpart: FillNormal
// produces exactly r.Seed(seeds[i]); r.Normal(mu, sigma) for each i.
// That is a hard contract, not an optimization detail — fingerprints,
// basis matching and the engine's cross-block determinism guarantee
// all assume a block boundary never changes a sampled value. The
// property tests in block_test.go and blackbox/block_test.go pin it.

const (
	// smGamma is splitmix64's additive constant γ, with its small
	// multiples precomputed (mod 2^64) so the four xoshiro seed words
	// derive in parallel instead of through a serial counter chain.
	smGamma  = 0x9e3779b97f4a7c15
	smGamma2 = 0x3c6ef372fe94f82a // 2γ mod 2^64
	smGamma3 = 0xdaa66d2c7ddf743f // 3γ mod 2^64
	smGamma4 = 0x78dde6e5fd29f054 // 4γ mod 2^64

	// inv53 is 2^-53. Both x/2^53 and x·2^-53 are exact for the
	// 53-bit integers Float64 produces, so multiplying by the
	// reciprocal yields bit-identical uniforms at multiplication cost.
	inv53 = 1.0 / (1 << 53)
	// inv52 is 2^-52: the polar method's 2·Float64() folds into the
	// conversion constant. x·2^-53 and its doubling are both exact
	// power-of-two scalings, so x·2^-52 − 1 is bit-identical to
	// 2·(x·2^-53) − 1 at one less multiply.
	inv52 = 1.0 / (1 << 52)
)

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

// The polar kernel exploits how little state the common case needs.
// With acceptance probability π/4 ≈ 0.785, most samples consume
// exactly two generator outputs, and those two depend on only three
// of the four xoshiro256** seed words: output 1 is a function of s1
// alone, and output 2 of s1^s2^s0 (the s1 word after one state
// update). The hot path therefore derives three seed words, computes
// both candidate uniforms with two xors of "state update", and never
// materializes s3 or the full update sequence; the ~21.5% of seeds
// whose first candidate is rejected fall into polarRetry, which
// rebuilds the complete post-update state and runs the standard loop.

// polarRetry resumes the polar method for a seed whose first (u, v)
// candidate was rejected: it reconstructs the full generator state
// after the two consumed outputs and keeps drawing. s0, s1, s2 are
// the freshly derived seed words (polarRetry re-derives only s3).
func polarRetry(seed, s0, s1, s2 uint64) float64 {
	s3 := smMix(seed + smGamma4)
	for k := 0; k < 2; k++ { // replay the two consumed state updates
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	for {
		r1 := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		u := float64(r1>>11)*inv52 - 1
		r2 := bits.RotateLeft64(s1*5, 7) * 9
		t = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		v := float64(r2>>11)*inv52 - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// polarFast computes a seed's first polar candidate (u and the radius
// s = u²+v²) from its three live seed words. The second output's s1
// word after one xoshiro update is s1^s2^s0, so no full state update
// is needed; v itself is dead in the accept path (the kernel returns
// u·f and a reseed discards the cached v·f).
func polarFast(s0, s1, s2 uint64) (u, s float64) {
	r1 := bits.RotateLeft64(s1*5, 7) * 9
	r2 := bits.RotateLeft64((s1^s2^s0)*5, 7) * 9
	u = float64(r1>>11)*inv52 - 1
	v := float64(r2>>11)*inv52 - 1
	return u, u*u + v*v
}

// checkFill panics on an out/seeds length mismatch — a block-pipeline
// plumbing bug, not a user error.
func checkFill(name string, out []float64, seeds []uint64) {
	if len(out) != len(seeds) {
		panic(fmt.Sprintf("rng: %s: out has %d slots for %d seeds", name, len(out), len(seeds)))
	}
}

// FillNormal sets out[i] to the N(mu, sigma²) sample a freshly seeded
// generator would draw: bit-identical to
// r.Seed(seeds[i]); out[i] = r.Normal(mu, sigma) for every i. The
// accept-first-candidate fast path runs inline in the loop — straight-
// line code whose only call is math.Log — two seeds per iteration so
// independent samples overlap in the pipeline; rejected seeds are
// outlined to polarRetry.
func FillNormal(out []float64, mu, sigma float64, seeds []uint64) {
	if sigma < 0 {
		panic(fmt.Sprintf("rng: Normal called with negative sigma %g", sigma))
	}
	checkFill("FillNormal", out, seeds)
	i := 0
	for ; i+2 <= len(seeds); i += 2 {
		sa, sb := seeds[i], seeds[i+1]
		a0 := smMix(sa + smGamma)
		a1 := smMix(sa + smGamma2)
		a2 := smMix(sa + smGamma3)
		b0 := smMix(sb + smGamma)
		b1 := smMix(sb + smGamma2)
		b2 := smMix(sb + smGamma3)
		ua, ss := polarFast(a0, a1, a2)
		ub, st := polarFast(b0, b1, b2)
		var za, zb float64
		if ss < 1 && ss != 0 {
			za = ua * math.Sqrt(-2*math.Log(ss)/ss)
		} else {
			za = polarRetry(sa, a0, a1, a2)
		}
		if st < 1 && st != 0 {
			zb = ub * math.Sqrt(-2*math.Log(st)/st)
		} else {
			zb = polarRetry(sb, b0, b1, b2)
		}
		out[i] = mu + sigma*za
		out[i+1] = mu + sigma*zb
	}
	for ; i < len(seeds); i++ {
		seed := seeds[i]
		s0 := smMix(seed + smGamma)
		s1 := smMix(seed + smGamma2)
		s2 := smMix(seed + smGamma3)
		u, s := polarFast(s0, s1, s2)
		var z float64
		if s < 1 && s != 0 {
			z = u * math.Sqrt(-2*math.Log(s)/s)
		} else {
			z = polarRetry(seed, s0, s1, s2)
		}
		out[i] = mu + sigma*z
	}
}

// FillNormalVar is FillNormal parameterized by variance, matching
// NormalVar: the √variance is computed once per block instead of once
// per sample.
func FillNormalVar(out []float64, mu, variance float64, seeds []uint64) {
	if variance < 0 {
		panic(fmt.Sprintf("rng: NormalVar called with negative variance %g", variance))
	}
	FillNormal(out, mu, math.Sqrt(variance), seeds)
}
