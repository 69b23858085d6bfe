package mc

// Per-worker scratch state for the engine's hot path. The paper's pitch
// is that fingerprint reuse makes sweep points cheap (§3, Figs. 8–9);
// that only holds if a reused point does not spend its savings in the
// allocator. Every buffer the per-point pipeline needs — fingerprint,
// candidate ids, bound arguments, row, one sample vector per output,
// accumulator, a sweep's prefixes — lives here and is recycled through
// a typed pool, so the steady-state cost of a reused point is a hash
// probe and a mapping validation, with (amortized) zero allocations.

import (
	"jigsaw/internal/core"
	"jigsaw/internal/param"
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
	// dsts is the per-output destination list handed to a sampler.
	dsts [][]float64
	// args is the bound-argument buffer for PointEval evaluators: the
	// point is bound into it once, not once per sample.
	args []float64
	// row is the row buffer for RowEval evaluators: bound once per
	// point, then every sample's row is evaluated into it and
	// projected onto the outputs.
	row []float64
	// seeds is the per-block sample-seed buffer: the seed stream is
	// materialized one block at a time instead of one cursor call per
	// sample.
	seeds []uint64
	// r is the worker's generator, reseeded per sample on the row path
	// (PointEval evaluators never touch it).
	r rng.Rand
	// acc accumulates sample statistics, Reset between points.
	acc stats.Accumulator
	// prefixes backs every point's prefix rows in a sweep that pins
	// this scratch as worker 0's (see rowSweep.prefixes).
	prefixes []float64
}

// newScratchPool builds the engine's scratch pool.
func newScratchPool() *pool.Pool[scratch] {
	return pool.NewPool[scratch](nil)
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

// seedBuf returns sc.seeds grown to length n (values undefined).
func (sc *scratch) seedBuf(n int) []uint64 {
	sc.seeds = grow(sc.seeds, n)
	return sc.seeds
}

// evaluator is the sampling loops' view of what a sweep evaluates: k
// outputs per sample, output c being slot slots[c] of the row that
// rows fills. A single-output PointEval is a one-output evaluator,
// drawn through its block kernel.
type evaluator struct {
	rows  RowEval
	point PointEval
	slots []int
}

// firstSlot is the slot list of every single-output evaluator.
var firstSlot = []int{0}

// pointEvaluator wraps a single-output PointEval.
func pointEvaluator(f PointEval) evaluator {
	return evaluator{point: f, slots: firstSlot}
}

// bind binds the evaluator to p on sc: a PointEval's arguments are
// resolved once into sc.args, a row evaluator's row buffer is sized
// and bound once (RowEval.BindRow).
func (ev *evaluator) bind(p param.Point, sc *scratch) sampler {
	if ev.point != nil {
		sc.args = ev.point.BindPoint(p, sc.args)
	} else {
		sc.row = grow(sc.row, ev.rows.RowLen())
		ev.rows.BindRow(p, sc.row)
	}
	return sampler{ev: *ev, sc: sc}
}

// sampler is an evaluator bound to one parameter point on one
// worker's scratch.
type sampler struct {
	ev evaluator
	sc *scratch
}

// sampleBlock evaluates one simulation round per seed: output c of
// the round seeded by seeds[j] lands in dsts[c][off+j], and outputs
// whose dsts entry is nil are dropped. A PointEval draws the block
// through its kernel; a row evaluator fills its bound row once per
// seed for all outputs at once.
func (s sampler) sampleBlock(dsts [][]float64, off int, seeds []uint64) {
	sc := s.sc
	if s.ev.point != nil {
		s.ev.point.EvalBlockBound(sc.args, dsts[0][off:off+len(seeds)], seeds)
		return
	}
	for j, seed := range seeds {
		sc.r.Seed(seed)
		s.ev.rows.FillRow(&sc.r, sc.row)
		for c, dst := range dsts {
			if dst != nil {
				dst[off+j] = sc.row[s.ev.slots[c]]
			}
		}
	}
}
