package mc

// Per-worker scratch state for the engine's hot path. The paper's pitch
// is that fingerprint reuse makes sweep points cheap (§3, Figs. 8–9);
// that only holds if a reused point does not spend its savings in the
// allocator. Every buffer the per-point pipeline needs — fingerprint,
// candidate ids, binding, one sample vector per output, accumulator, a
// sweep's prefixes — lives here and is recycled through a typed pool,
// so the steady-state cost of a reused point is a hash probe and a
// mapping validation, with (amortized) zero allocations.

import (
	"jigsaw/internal/core"
	"jigsaw/internal/pool"
	"jigsaw/internal/rng"
	"jigsaw/internal/stats"
)

// scratch is one worker's reusable state. A scratch is owned by one
// goroutine at a time: engines hand them out via a pool.Pool
// (EvaluatePoint) or pin one per worker id (the sweep).
type scratch struct {
	// probe carries the store's candidate-id buffer.
	probe core.ProbeScratch
	// fp is the fingerprint buffer for probe-only fingerprints.
	fp core.Fingerprint
	// samples holds one full-simulation sample buffer per output,
	// reused unless a basis payload keeps the vector (Reuse with
	// KeepSamples: ownership transfers to the payload, so it must be
	// freshly allocated).
	samples [][]float64
	// dsts is the per-output destination list handed to sampleRange.
	dsts [][]float64
	// outs is the per-output list of one block's views of dsts,
	// handed to PointEval.EvalBlockBound.
	outs [][]float64
	// bound is the PointEval binding: the point is bound into it once,
	// not once per sample.
	bound []float64
	// ids is the per-block sample-id buffer.
	ids []int
	// r is the worker's generator, lent to EvalBlockBound for
	// evaluators that reseed it once per sample.
	r rng.Rand
	// acc accumulates sample statistics, Reset between points.
	acc stats.Accumulator
	// prefixes backs every point's prefix rows in a sweep that pins
	// this scratch as worker 0's (see rowSweep.prefixes).
	prefixes []float64
}

// newScratchPool builds the engine's scratch pool.
func newScratchPool() *pool.Pool[scratch] {
	return pool.NewPool[scratch]()
}

// grow returns buf resliced to length n, reallocated when its
// capacity is short (values undefined).
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// floats returns output c's sample buffer grown to length n (values
// undefined).
func (sc *scratch) floats(c, n int) []float64 {
	for len(sc.samples) <= c {
		sc.samples = append(sc.samples, nil)
	}
	sc.samples[c] = grow(sc.samples[c], n)
	return sc.samples[c]
}

// outputs returns the destination list with k entries, all nil.
func (sc *scratch) outputs(k int) [][]float64 {
	sc.dsts = grow(sc.dsts, k)
	clear(sc.dsts)
	return sc.dsts
}

// fingerprint returns sc.fp grown to length m (values undefined).
func (sc *scratch) fingerprint(m int) core.Fingerprint {
	sc.fp = grow(sc.fp, m)
	return sc.fp
}
