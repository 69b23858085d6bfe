// Package mc implements Jigsaw's Monte Carlo subsystem — the dashed
// box of Fig. 3 — together with the fingerprint-based work reuse of
// §3: for each parameter point the engine computes a fingerprint (the
// first m simulation rounds), probes the basis-distribution store, and
// either maps an existing basis' metrics onto the point (a "hit") or
// completes the remaining n−m rounds and registers a new basis.
package mc

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/core"
	"jigsaw/internal/param"
	"jigsaw/internal/pool"
	"jigsaw/internal/rng"
	"jigsaw/internal/stats"
)

// PointEval is the stochastic function F(P, σ) of §3.1 at one
// parameter point: a point is bound once (BindPoint), then sampled in
// blocks of sample ids (EvalBlockBound). The full Monte Carlo
// simulation of Fig. 3's dashed box is "the stochastic function F"
// being fingerprinted (§3: "Taken to one extreme, the entire Monte
// Carlo simulation ... can be treated as the stochastic function F").
// One sample of F may yield several outputs — every result column of
// one sampled world of a compiled scenario — and SweepRows
// fingerprints and simulates each sample once for all of them; Sweep,
// SweepBatch and EvaluatePoint read output 0.
//
// A sample is named by (master, id), and its seed is
// rng.SampleSeed(master, id). Every sample must be a function of the
// binding and its own seed alone: outs[c][j] depends on what
// BindPoint wrote and the seed of ids[j], never on the other ids of
// its block. The engine relies on that to keep results independent of
// block size (see DESIGN.md, "Block-sampling pipeline").
// Implementations must be safe for concurrent calls on distinct
// bindings (the engine spreads points over workers, each with a
// binding of its own). BindBox adapts any black box, plain functions
// included (blackbox.Func), and compiled scenario columns are one too
// (exec's Scenario.ColumnEval).
type PointEval interface {
	// BindPoint writes what sampling needs of p into buf (growing it
	// as needed) and returns the binding for EvalBlockBound. It draws
	// nothing, and the implementation must not retain buf.
	BindPoint(p param.Point, buf []float64) []float64
	// EvalBlockBound draws one sample per id against a binding
	// BindPoint returned: output c of sample ids[j], seeded by
	// rng.SampleSeed(master, ids[j]), goes to outs[c][j]
	// (len(outs[c]) == len(ids)), and nothing is written for a nil
	// outs[c]. The ids need be neither consecutive nor sorted. r is a
	// generator the caller lends, for evaluators that reseed once per
	// sample. It may use the binding as scratch, provided what
	// BindPoint wrote survives: one goroutine draws a given binding at
	// a time.
	EvalBlockBound(bound []float64, outs [][]float64, master uint64, ids []int, r *rng.Rand)
}

// BoundBox adapts a black box to a PointEval by binding its positional
// arguments to named parameters: the parameter names resolve once per
// point, and blocks draw through the box's native blackbox.BlockBox
// kernel when it has one, otherwise through the generator the engine
// lends, reseeded once per sample.
type BoundBox struct {
	box   blackbox.Box
	block blackbox.BlockBox // box's native kernel, or nil
	names []string
}

// BindPoint implements PointEval.
func (b *BoundBox) BindPoint(p param.Point, buf []float64) []float64 {
	buf = buf[:0]
	for _, n := range b.names {
		buf = append(buf, p.MustGet(n))
	}
	return buf
}

// seedChunks lends a BoundBox the seed buffer its native kernel
// reads: a block's seeds are derived one chunk at a time, so a block
// allocates nothing.
var seedChunks = sync.Pool{New: func() any { return new([DefaultBlockSize]uint64) }}

// EvalBlockBound implements PointEval: output 0 is the box's draw.
func (b *BoundBox) EvalBlockBound(bound []float64, outs [][]float64, master uint64, ids []int, r *rng.Rand) {
	out := outs[0]
	switch {
	case out == nil: // output 0 not requested
	case b.block != nil:
		chunk := seedChunks.Get().(*[DefaultBlockSize]uint64)
		for lo := 0; lo < len(ids); lo += len(chunk) {
			seeds := chunk[:min(len(chunk), len(ids)-lo)]
			for j := range seeds {
				seeds[j] = rng.SampleSeed(master, ids[lo+j])
			}
			b.block.EvalBlock(bound, out[lo:lo+len(seeds)], seeds)
		}
		seedChunks.Put(chunk)
	default:
		for j, id := range ids {
			r.Seed(rng.SampleSeed(master, id))
			out[j] = b.box.Eval(bound, r)
		}
	}
}

// BindBox adapts a black box to a PointEval by binding its positional
// arguments to named parameters.
func BindBox(b blackbox.Box, argNames ...string) (PointEval, error) {
	if len(argNames) != b.Arity() {
		return nil, fmt.Errorf("mc: %s expects %d args, got %d names", b.Name(), b.Arity(), len(argNames))
	}
	block, _ := b.(blackbox.BlockBox)
	return &BoundBox{box: b, block: block, names: append([]string(nil), argNames...)}, nil
}

// MustBindBox is BindBox, panicking on arity mismatch.
func MustBindBox(b blackbox.Box, argNames ...string) PointEval {
	f, err := BindBox(b, argNames...)
	if err != nil {
		panic(err)
	}
	return f
}

// IndexKind selects the fingerprint index strategy (§3.2).
type IndexKind int

const (
	// IndexArray is the naive scan baseline.
	IndexArray IndexKind = iota
	// IndexNormalization hashes affine normal forms.
	IndexNormalization
	// IndexSortedSID hashes sorted sample-identifier sequences.
	IndexSortedSID
)

// String implements fmt.Stringer.
func (k IndexKind) String() string {
	switch k {
	case IndexArray:
		return "Array"
	case IndexNormalization:
		return "Normalization"
	case IndexSortedSID:
		return "SortedSID"
	default:
		return fmt.Sprintf("IndexKind(%d)", int(k))
	}
}

// Options configures an Engine. The zero value is completed by
// defaults matching the paper's experimental setup (§6): 1000 samples
// per point, fingerprint length 10.
type Options struct {
	// Samples is n, the number of Monte Carlo rounds per point.
	Samples int
	// FingerprintLen is m; it must not exceed Samples.
	FingerprintLen int
	// MasterSeed names the sample seeds: sample k draws from
	// rng.SampleSeed(MasterSeed, k), and the first FingerprintLen of
	// them are the global seed set {σk}.
	MasterSeed uint64
	// Reuse enables fingerprint-based work reuse; disabled it yields
	// the "Full Evaluation" baseline of Fig. 8.
	Reuse bool
	// Index selects the basis index strategy.
	Index IndexKind
	// Class is the mapping class; its zero value is the paper's
	// linear class with identical constants matched via identity.
	Class core.LinearClass
	// Tolerance is the mapping validation tolerance (default
	// core.DefaultTolerance).
	Tolerance float64
	// KeepSamples retains each basis' sample vector in its payload
	// (with Reuse). Reuse with ValidationSamples > 0 retains them
	// whatever KeepSamples says, and Options reports it set.
	KeepSamples bool
	// ValidationSamples extends every successful fingerprint match
	// with that many additional paired samples before trusting it —
	// the batch-mode application of §5's "Validation" task. It guards
	// against the §6.2 false-positive risk on indicator-style outputs,
	// where m identical samples (e.g. ten zeros of a rare overload
	// flag) can match a basis whose true distribution differs. The
	// validation rounds are rounds m to m+v−1, v = min(ValidationSamples,
	// Samples−FingerprintLen). A sweep draws them for every point in its
	// parallel fingerprint phase, so the cost is v extra rounds per
	// point, and a point that is simulated after all keeps them as its
	// samples; a lone EvaluatePoint draws them only on a match. With
	// Reuse, bases retain their seed-aligned sample vectors to compare
	// against. 0 (the default) reproduces the paper's behavior exactly.
	ValidationSamples int
	// Workers sizes the point pool of Sweep and SweepBatch; 0 means
	// GOMAXPROCS, 1 runs the sweep on the calling goroutine, negative
	// values are rejected. A point's own samples always draw on one
	// goroutine, so a lone EvaluatePoint ignores Workers. Results are
	// deterministic for any worker count (see DESIGN.md, "Concurrency
	// model").
	Workers int
}

// DefaultBlockSize is the number of samples the engine draws per
// batch through the block pipeline: large enough to amortize
// per-block setup (id fill, kernel dispatch, binding checks) to
// noise, small enough that a block's ids and samples stay
// L1-resident (4 KiB together). Every sample's seed depends only on
// its id, so results are bit-identical for every block size (see
// DESIGN.md, "Block-sampling pipeline").
const DefaultBlockSize = 256

// withDefaults returns a copy with unset fields defaulted.
func (o Options) withDefaults() Options {
	if o.Samples == 0 {
		o.Samples = 1000
	}
	if o.FingerprintLen == 0 {
		o.FingerprintLen = 10
	}
	if o.Tolerance <= 0 {
		o.Tolerance = core.DefaultTolerance
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Reuse && o.ValidationSamples > 0 {
		o.KeepSamples = true // validation compares against them
	}
	return o
}

// validate rejects option values that no default repairs. It runs
// before withDefaults, so a non-finite Tolerance is caught instead of
// silently disabling reuse (NaN) or being replaced by the default
// (-Inf).
func (o Options) validate() error {
	switch {
	case o.Samples < 0:
		return fmt.Errorf("mc: negative Samples %d", o.Samples)
	case o.FingerprintLen < 0:
		return fmt.Errorf("mc: negative FingerprintLen %d", o.FingerprintLen)
	case o.Workers < 0:
		return fmt.Errorf("mc: negative Workers %d", o.Workers)
	case o.ValidationSamples < 0:
		return fmt.Errorf("mc: negative ValidationSamples %d", o.ValidationSamples)
	case math.IsNaN(o.Tolerance) || math.IsInf(o.Tolerance, 0):
		return fmt.Errorf("mc: non-finite Tolerance %g", o.Tolerance)
	case o.Index < IndexArray || o.Index > IndexSortedSID:
		return fmt.Errorf("mc: unknown index %v", o.Index)
	}
	return nil
}

// newIndex instantiates the configured index strategy.
func (o Options) newIndex() core.Index {
	switch o.Index {
	case IndexNormalization:
		return core.NewNormalizationIndex(6, o.Tolerance)
	case IndexSortedSID:
		return core.NewSortedSIDIndex(o.Tolerance, true)
	default:
		return core.NewArrayIndex()
	}
}

// BasisPayload is what the engine stores with each basis distribution:
// the summary metrics plus (optionally) the raw samples behind them.
type BasisPayload struct {
	// Summary holds the estimator output oi for the basis point.
	Summary stats.Summary
	// Samples holds the basis' seed-aligned draws when the engine's
	// effective Options.KeepSamples is set (always, when it validates);
	// validation compares matches against them.
	Samples []float64

	// pending is nonzero between a sweep registering the basis (phase
	// B) and filling in its simulation results (phase C).
	// Everywhere else payloads are constructed complete, so the zero
	// value reads as ready.
	pending atomic.Uint32
}

// markPending flags the payload as incomplete; it must be called
// before the payload is published through Store.Add.
func (p *BasisPayload) markPending() { p.pending.Store(1) }

// complete publishes the filled fields: the atomic store orders the
// preceding plain writes before any reader that observes Ready.
func (p *BasisPayload) complete() { p.pending.Store(0) }

// Ready reports whether the payload's fields may be read. A payload
// is not ready while the sweep that registered it is still filling it
// in — or indefinitely, if a panicking evaluator abandoned that sweep
// mid-flight. The engine's match filter (payloadReady) skips not-ready
// bases, so an abandoned registration costs one redundant simulation
// (the next miss registers a usable duplicate) and never a wrong
// answer.
func (p *BasisPayload) Ready() bool { return p.pending.Load() == 0 }

// payloadReady is the engine's Store.Match accept filter: bases whose
// payloads are still (or forever) incomplete, and bases whose payload
// is not a *BasisPayload at all, are skipped during candidate
// scanning. Every basis a match returns can therefore be mapped.
func payloadReady(b *core.Basis) bool {
	p, ok := b.Payload.(*BasisPayload)
	return ok && p.Ready()
}

// PointResult is the engine's answer for one parameter point.
type PointResult struct {
	// Point is the evaluated parameter valuation.
	Point param.Point
	// Summary is the estimated output distribution characteristics.
	Summary stats.Summary
	// Reused reports whether the result was mapped from a basis
	// rather than fully simulated.
	Reused bool
	// BasisID identifies the basis used (or created).
	BasisID int
	// Mapping is the applied mapping for reused results (the zero
	// value otherwise).
	Mapping core.Linear
}

// Engine evaluates parameter points with optional fingerprint reuse.
//
// An Engine is safe for concurrent use: the basis store is guarded by
// one read-write lock, every call returns its own statistics, and
// per-worker scratch state is pooled, so independent goroutines (e.g.
// interactive sessions sharing a warmed store) may call EvaluatePoint
// concurrently. Note that concurrent EvaluatePoint callers race
// benignly on basis registration — both may fully simulate the same
// fingerprint family before either Adds it. Sweep and SweepBatch avoid
// that by sequencing all store decisions in enumeration order, which
// also makes their results bit-identical for every Workers setting.
type Engine struct {
	opts  Options
	store *core.Store

	// scratches recycles per-worker hot-path buffers (see scratch.go).
	scratches *pool.Pool[scratch]
	// blockSize is the number of samples drawn per block
	// (DefaultBlockSize; tests vary it to pin block-size invariance).
	blockSize int
}

// New constructs an engine.
func New(opts Options) (*Engine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.FingerprintLen > opts.Samples {
		return nil, fmt.Errorf("mc: fingerprint length %d exceeds sample count %d",
			opts.FingerprintLen, opts.Samples)
	}
	return &Engine{
		opts:      opts,
		store:     core.NewStore(opts.Class, opts.newIndex(), opts.Tolerance),
		scratches: newScratchPool(),
		blockSize: DefaultBlockSize,
	}, nil
}

// MustNew is New, panicking on error.
func MustNew(opts Options) *Engine {
	e, err := New(opts)
	if err != nil {
		panic(err)
	}
	return e
}

// Store exposes the basis store for read-only inspection of its bases
// and size.
func (e *Engine) Store() *core.Store { return e.store }

// Options returns the engine's effective options.
func (e *Engine) Options() Options { return e.opts }

// fingerprints computes f's output prefixes at p — simulation rounds
// 0 to w−1 — into dsts (dsts[c], of length w, for output c), binding
// the point once into sc.bound. The first m rounds are the fingerprint
// (§3.1); a sweep that validates matches draws the validation rounds m
// to w−1 along with it (see rowSweep.w).
func (e *Engine) fingerprints(f PointEval, p param.Point, dsts [][]float64, w int, sc *scratch) {
	sc.bound = f.BindPoint(p, sc.bound)
	e.sampleRange(f, sc.bound, dsts, 0, w, sc)
}

// EvaluatePoint runs the Monte Carlo estimation for one point,
// reusing a basis distribution when the store yields a mapping, and
// returns the point's result with this call's statistics (Points: 1).
func (e *Engine) EvaluatePoint(f PointEval, p param.Point) (PointResult, SweepStats) {
	sc := e.scratches.Get()
	defer e.scratches.Put(sc)
	fp := sc.fingerprint(e.opts.FingerprintLen)
	dsts := sc.outputs(1)
	dsts[0] = fp
	m := len(fp)
	e.fingerprints(f, p, dsts, m, sc)

	st := SweepStats{Points: 1}
	if e.opts.Reuse {
		basis, mapping, ok, scanned := e.store.Match(fp, payloadReady, &sc.probe)
		st.Store.Queries = 1
		st.Store.CandidatesScanned = scanned
		if ok {
			st.Store.Hits = 1
			valid := true
			if v := e.validationRounds(); v > 0 {
				// The targets land in the scratch sample buffer; on a
				// failed validation the full simulation overwrites it.
				// The fingerprint's binding is still in sc.bound.
				targets := sc.floats(0, m+v)
				dsts = sc.outputs(1)
				dsts[0] = targets
				e.sampleRange(f, sc.bound, dsts, m, m+v, sc)
				valid = e.validateMatch(mapping, basis.Payload.(*BasisPayload).Samples, targets, v)
			}
			if valid {
				st.Reused = 1
				return e.mapBasis(basis, mapping, p), st
			}
		}
	}

	samples := e.sampleVector(0, sc)
	copy(samples, fp)
	dsts = sc.outputs(1)
	dsts[0] = samples
	e.simulateRows(f, p, dsts, m, sc)
	res := e.summarize(p, samples, sc)
	st.FullSimulations = 1
	if e.opts.Reuse {
		payload := &BasisPayload{Summary: res.Summary}
		if e.opts.KeepSamples {
			payload.Samples = samples
		}
		basis, err := e.store.Add(fp, p.Key(), payload)
		if err == nil {
			res.BasisID = basis.ID
			st.Store.Bases = 1
		}
	}
	return res, st
}

// validationRounds is v, the number of paired rounds past the
// fingerprint on which a match is validated: ValidationSamples,
// clamped to the n−m rounds there are, or 0 when the engine trusts
// matches as-is (no reuse or no validation).
func (e *Engine) validationRounds() int {
	o := e.opts
	if !o.Reuse || o.ValidationSamples <= 0 {
		return 0
	}
	return min(o.ValidationSamples, o.Samples-o.FingerprintLen)
}

// validateMatch re-validates a fingerprint match on the v paired
// rounds after the fingerprint, m to m+v−1: the mapping must carry
// round i of the basis' samples onto round i of the point's own
// targets (both indexed by round id, so the pairs share a seed).
// Rounds the basis did not retain are not compared, so a basis
// without retained samples is trusted as-is (the paper's behavior).
func (e *Engine) validateMatch(mapping core.Linear, basis, targets []float64, v int) bool {
	m := e.opts.FingerprintLen
	for i := m; i < min(m+v, len(basis)); i++ {
		if !core.ApproxEqual(mapping.Apply(basis[i]), targets[i], e.opts.Tolerance) {
			return false
		}
	}
	return true
}

// mapBasis derives the point's result from a matched basis by pushing
// the mapping through its summary. The basis' payload must be a
// complete *BasisPayload, which the engine's match filters guarantee.
func (e *Engine) mapBasis(basis *core.Basis, mapping core.Linear, p param.Point) PointResult {
	return PointResult{
		Point:   p,
		Summary: basis.Payload.(*BasisPayload).Summary.MapAffine(mapping.Alpha, mapping.Beta),
		Reused:  true,
		BasisID: basis.ID,
		Mapping: mapping,
	}
}

// sampleVector returns the buffer for output c's n samples: freshly
// allocated when a basis payload will keep it (Reuse with
// KeepSamples; ownership transfers to the payload), the scratch's
// buffer for output c otherwise, in which case it must not outlive the
// point.
func (e *Engine) sampleVector(c int, sc *scratch) []float64 {
	if e.opts.Reuse && e.opts.KeepSamples {
		return make([]float64, e.opts.Samples)
	}
	return sc.floats(c, e.opts.Samples)
}

// summarize returns the result of a fully simulated point.
func (e *Engine) summarize(p param.Point, samples []float64, sc *scratch) PointResult {
	acc := &sc.acc
	acc.Reset()
	acc.AddBlock(samples)
	return PointResult{Point: p, Summary: acc.Summarize(), BasisID: -1}
}

// simulateRows runs the rounds from lo to n−1 on the calling
// goroutine, binding p once into sc.bound, one sample per round for
// all of f's outputs: output c's samples land in dsts[c][lo:n], whose
// first lo entries the caller fills with rounds it drew already (the
// fingerprint, or a sweep's whole prefix); nil entries are skipped.
// Parallelism lives outside a point: a sweep spreads its points over
// the pool, and the PDB spreads blocks of worlds.
func (e *Engine) simulateRows(f PointEval, p param.Point, dsts [][]float64, lo int, sc *scratch) {
	sc.bound = f.BindPoint(p, sc.bound)
	e.sampleRange(f, sc.bound, dsts, lo, e.opts.Samples, sc)
}

// sampleRange draws the rounds with ids [lo, hi) into dsts[c][lo:hi],
// one block at a time: each block's ids are written into sc's id
// buffer and handed to f with the engine's master seed, the block's
// views of dsts (nil entries stay nil) and sc's generator. Block
// boundaries are invisible in the output because each sample's seed
// depends only on its id.
func (e *Engine) sampleRange(f PointEval, bound []float64, dsts [][]float64, lo, hi int, sc *scratch) {
	bs := min(e.blockSize, hi-lo)
	if bs <= 0 {
		return
	}
	sc.ids = grow(sc.ids, bs)
	sc.outs = grow(sc.outs, len(dsts))
	outs := sc.outs
	for off := lo; off < hi; off += bs {
		ids := sc.ids[:min(bs, hi-off)]
		for j := range ids {
			ids[j] = off + j
		}
		for c, dst := range dsts {
			outs[c] = nil
			if dst != nil {
				outs[c] = dst[off : off+len(ids)]
			}
		}
		f.EvalBlockBound(bound, outs, e.opts.MasterSeed, ids, &sc.r)
	}
}

// SweepStats is the reuse accounting of one engine call: an
// EvaluatePoint, a Sweep or a SweepBatch. Every count covers that
// call alone, so a call's Points == FullSimulations + Reused (and ==
// Store.Queries with reuse on) on a fresh engine or a warmed one;
// Add sums calls.
type SweepStats struct {
	// Points is the number of points evaluated.
	Points int
	// FullSimulations counts points simulated end to end.
	FullSimulations int
	// Reused counts points answered from a mapped basis.
	Reused int
	// Store carries the basis-store probe accounting.
	Store StoreStats
}

// StoreStats describes one call's use of the engine's basis store;
// the experiment harness reports these alongside timings.
type StoreStats struct {
	// Bases is the number of basis distributions the call registered.
	Bases int
	// Queries is the number of store lookups (one per reuse decision).
	Queries int
	// Hits is the number of lookups that found a mapping.
	Hits int
	// CandidatesScanned counts FindMapping attempts across all
	// queries; the index strategies exist to minimize it.
	CandidatesScanned int
}

// Add accumulates another call's statistics into s.
func (s *SweepStats) Add(o SweepStats) {
	s.Points += o.Points
	s.FullSimulations += o.FullSimulations
	s.Reused += o.Reused
	s.Store.Bases += o.Store.Bases
	s.Store.Queries += o.Store.Queries
	s.Store.Hits += o.Store.Hits
	s.Store.CandidatesScanned += o.Store.CandidatesScanned
}
