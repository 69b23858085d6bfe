package mc

// Per-worker scratch state for the engine's hot path. The paper's pitch
// is that fingerprint reuse makes sweep points cheap (§3, Figs. 8–9);
// that only holds if a reused point does not spend its savings in the
// allocator. Every buffer the per-point pipeline needs — fingerprint,
// candidate ids, bound arguments, sample vector, accumulator — lives
// here and is recycled through a typed pool, so the steady-state cost
// of a reused point is a hash probe and a mapping validation, with
// (amortized) zero allocations.

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
	// samples is the full-simulation sample buffer, reused when the
	// engine does not retain samples (retained samples transfer
	// ownership to the basis payload and must be freshly allocated).
	samples []float64
	// args is the bound-argument buffer for PointBinder evaluators:
	// the point is bound into it once, not once per sample.
	args []float64
	// seeds is the per-block sample-seed buffer: the seed stream is
	// materialized one block at a time instead of one cursor call per
	// sample.
	seeds []uint64
	// r is the worker's generator, reseeded per sample on the scalar
	// fallback path (PointBinder evaluators never touch it).
	r rng.Rand
	// acc accumulates sample statistics, Reset between points.
	acc stats.Accumulator
}

// newScratchPool builds the engine's scratch pool.
func newScratchPool() *pool.Pool[scratch] {
	return pool.NewPool[scratch](nil)
}

// floats returns sc.samples grown to length n (values undefined).
func (sc *scratch) floats(n int) []float64 {
	if cap(sc.samples) < n {
		sc.samples = make([]float64, n)
	}
	sc.samples = sc.samples[:n]
	return sc.samples
}

// fingerprint returns sc.fp grown to length m (values undefined).
func (sc *scratch) fingerprint(m int) core.Fingerprint {
	if cap(sc.fp) < m {
		sc.fp = make(core.Fingerprint, m)
	}
	sc.fp = sc.fp[:m]
	return sc.fp
}

// seedBuf returns sc.seeds grown to length n (values undefined).
func (sc *scratch) seedBuf(n int) []uint64 {
	if cap(sc.seeds) < n {
		sc.seeds = make([]uint64, n)
	}
	sc.seeds = sc.seeds[:n]
	return sc.seeds
}

// sampler is a PointEval bound to one parameter point for repeated
// block sampling. For PointBinder evaluators the arguments are bound
// once (map lookups and all) and every block is one EvalBlockBound
// call; plain evaluators draw each sample through EvalPoint.
type sampler struct {
	f    PointEval
	pb   PointBinder // non-nil when f supports binding
	p    param.Point
	args []float64
}

// bindSampler binds f to p, reusing buf for the bound arguments.
// Call (*sampler).buf afterwards to recover the (possibly grown)
// buffer for reuse.
func bindSampler(f PointEval, p param.Point, buf []float64) sampler {
	if pb, ok := f.(PointBinder); ok {
		return sampler{pb: pb, p: p, args: pb.BindPoint(p, buf)}
	}
	return sampler{f: f, p: p, args: buf}
}

// sampleBlock evaluates one simulation round per seed into out.
// Binders take their block kernel; plain evaluators fall back to a
// reseed-per-sample loop on r, so the results are bit-identical
// either way (PointBinder's contract).
func (s *sampler) sampleBlock(out []float64, seeds []uint64, r *rng.Rand) {
	if s.pb != nil {
		s.pb.EvalBlockBound(s.args, out, seeds)
		return
	}
	for i, seed := range seeds {
		r.Seed(seed)
		out[i] = s.f.EvalPoint(s.p, r)
	}
}

// buf returns the argument buffer for reuse by the next binding.
func (s *sampler) buf() []float64 { return s.args }
