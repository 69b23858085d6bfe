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

import (
	"errors"
	"fmt"
	"math/bits"
)

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

// splitmix64 advances the given state and returns the next output of
// the splitmix64 generator (γ and the shared output finalizer live in
// block.go). It is used solely for seeding.
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

// ErrEmptySeedSet is returned by NewSeedSet when m < 1.
var ErrEmptySeedSet = errors.New("rng: seed set must contain at least one seed")

// SeedSet is the global fixed vector of seeds {σk} from §3.1 of the
// paper. All fingerprints computed against the same SeedSet are
// comparable; the set is generated once at engine initialization and
// held constant for the lifetime of the computation.
type SeedSet struct {
	seeds []uint64
}

// NewSeedSet derives m seeds from the master seed. The derivation is a
// splitmix64 stream, so the same (master, m) always yields the same
// set, and extending m preserves the existing prefix — the property the
// interactive engine (§5) relies on when progressively growing
// fingerprints.
func NewSeedSet(master uint64, m int) (*SeedSet, error) {
	if m < 1 {
		return nil, ErrEmptySeedSet
	}
	s := &SeedSet{seeds: make([]uint64, m)}
	sm := master
	for i := range s.seeds {
		s.seeds[i] = splitmix64(&sm)
	}
	return s, nil
}

// MustSeedSet is NewSeedSet, panicking on invalid m. Intended for
// package-level initialization in tests and examples.
func MustSeedSet(master uint64, m int) *SeedSet {
	s, err := NewSeedSet(master, m)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of seeds (the fingerprint length m).
func (s *SeedSet) Len() int { return len(s.seeds) }

// Seed returns σk. It panics if k is out of range, which indicates an
// engine bug rather than a user error.
func (s *SeedSet) Seed(k int) uint64 {
	if k < 0 || k >= len(s.seeds) {
		panic(fmt.Sprintf("rng: seed index %d out of range [0,%d)", k, len(s.seeds)))
	}
	return s.seeds[k]
}

// SampleSeed derives the seed for Monte Carlo sample id beyond the
// fingerprint prefix. Samples 0..m-1 use the fingerprint seeds so the
// fingerprint doubles as the first m simulation rounds (§3.1: "the
// fingerprint of F(Pi) is essentially the outputs of first m simulation
// rounds"); later samples extend the same splitmix64 stream
// deterministically.
//
// The splitmix64 state after k outputs is master + k·γ, so the id'th
// output is computable in O(1) — no walk of the stream prefix.
func (s *SeedSet) SampleSeed(master uint64, id int) uint64 {
	if id < len(s.seeds) {
		return s.seeds[id]
	}
	return splitmixAt(master, id)
}

// splitmixAt returns the id'th output (0-based) of the splitmix64
// stream seeded with master, in O(1): the additive-counter state after
// id+1 steps is master + (id+1)·γ, and the output is its finalizer.
func splitmixAt(master uint64, id int) uint64 {
	return smMix(master + uint64(id+1)*smGamma)
}

// StreamSeeds materializes seeds for sample ids [0, n) in one pass,
// avoiding the quadratic cost of repeated SampleSeed calls. Hot loops
// that should not allocate use Stream instead.
func (s *SeedSet) StreamSeeds(master uint64, n int) []uint64 {
	out := make([]uint64, n)
	sm := master
	for i := 0; i < n; i++ {
		out[i] = splitmix64(&sm)
	}
	copy(out, s.seeds[:min(len(s.seeds), n)])
	return out
}

// SeedStream is a zero-allocation cursor over the sample-seed
// sequence: position k yields SampleSeed(master, k). Because the
// underlying splitmix64 state is an additive counter, Skip is O(1),
// which is what lets parallel simulation workers jump straight to
// their chunk of the stream instead of materializing a seed slice.
// A SeedStream is a value; each worker keeps its own.
type SeedStream struct {
	set    *SeedSet
	master uint64
	id     int
}

// Stream returns a seed cursor positioned at sample id 0.
func (s *SeedSet) Stream(master uint64) SeedStream {
	return SeedStream{set: s, master: master}
}

// Next returns the seed at the cursor and advances it.
func (st *SeedStream) Next() uint64 {
	id := st.id
	st.id++
	return st.set.SampleSeed(st.master, id)
}

// Skip advances the cursor by k sample ids in O(1).
func (st *SeedStream) Skip(k int) { st.id += k }

// Pos returns the sample id the cursor will yield next.
func (st *SeedStream) Pos() int { return st.id }
