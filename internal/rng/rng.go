// Package rng provides the deterministic pseudorandom substrate that
// Jigsaw's fingerprinting technique is built on.
//
// The paper (§3.1) requires every stochastic black-box function to draw
// all of its randomness from a pseudorandom generator seeded with an
// externally supplied seed σ. Evaluating a function twice with the same
// seed must consume an identical random stream, so that outputs under
// different parameter values are deterministically related whenever the
// underlying distributions are related. This package therefore
// implements its own generator rather than delegating to math/rand:
// the stream must be stable across Go releases and across machines for
// fingerprints, tests and recorded experiment output to be reproducible.
//
// The generator is xoshiro256**, seeded through splitmix64 as its
// authors recommend. Both algorithms are public domain.
package rng

import "math/bits"

// Rand is a deterministic pseudorandom number generator. It is the only
// source of randomness black-box functions are permitted to use. A Rand
// is not safe for concurrent use; the Monte Carlo engine creates one
// Rand per (parameter point, sample id) pair.
type Rand struct {
	s [4]uint64

	// gauss caches the second variate produced by the polar method so
	// consecutive Normal draws consume a deterministic amount of stream.
	gauss    float64
	hasGauss bool
}

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

// splitmix64 advances the given state and returns the next output of
// the splitmix64 generator. It is used solely for seeding.
func splitmix64(state *uint64) uint64 {
	*state += smGamma
	return smMix(*state)
}

// New returns a generator seeded from the single 64-bit seed. Distinct
// seeds produce statistically independent streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the deterministic state derived from
// seed, discarding any cached Gaussian variate.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	r.s[0] = splitmix64(&sm)
	r.s[1] = splitmix64(&sm)
	r.s[2] = splitmix64(&sm)
	r.s[3] = splitmix64(&sm)
	r.hasGauss = false
	r.gauss = 0
}

// Uint64 returns the next 64 bits of the stream (xoshiro256**).
func (r *Rand) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// State returns the full internal state; tests compare it to check
// that two generators are at the same point of their streams.
func (r *Rand) State() [4]uint64 {
	return r.s
}

// SampleSeed returns σ_id, the seed of Monte Carlo sample id: the
// id'th output (0-based) of the splitmix64 stream seeded with master.
// The paper's global seed set {σk} (§3.1) is the stream's first m
// outputs, so a fingerprint is the first m simulation rounds. The
// state after id+1 steps is master + (id+1)·γ, so this is O(1).
func SampleSeed(master uint64, id int) uint64 {
	return smMix(master + uint64(id+1)*smGamma)
}
