// Package mc implements Jigsaw's Monte Carlo subsystem — the dashed
// box of Fig. 3 — together with the fingerprint-based work reuse of
// §3: for each parameter point the engine computes a fingerprint (the
// first m simulation rounds), probes the basis-distribution store, and
// either maps an existing basis' metrics onto the point (a "hit") or
// registers the point as a new basis and completes its remaining
// rounds.
package mc

import (
	"fmt"
	"runtime"
	"slices"
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
// blocks of sample ids (EvalBlockBound). A point is a value row: its
// values in the Decls order of the evaluator's Space, the space it
// resolved its parameter names against when it was built. The full
// Monte Carlo simulation of Fig. 3's dashed box is "the stochastic
// function F" being fingerprinted (§3: "Taken to one extreme, the
// entire Monte Carlo simulation ... can be treated as the stochastic
// function F"). One sample of F may yield several outputs — every
// result column of one sampled world of a compiled scenario — and
// Engine.SweepStream fingerprints and simulates each sample once for
// all of them; Sweep, SweepBatch and EvaluatePoint read output 0.
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
	// Space is the parameter space whose value rows the evaluator
	// reads.
	Space() *param.Space
	// BindPoint writes what sampling needs of the value row vals into
	// buf (growing it as needed) and returns the binding for
	// EvalBlockBound. It draws nothing and retains neither slice.
	BindPoint(vals, buf []float64) []float64
	// EvalBlockBound draws one sample per id against a binding
	// BindPoint returned: output c of sample ids[j], seeded by
	// rng.SampleSeed(master, ids[j]), goes to outs[c][j]
	// (len(outs[c]) == len(ids)), and nothing is written for a nil
	// outs[c]. The ids ascend (a repeat is allowed), so the last is the
	// largest, but need not be consecutive. r is a
	// generator the caller lends, for evaluators that reseed once per
	// sample. It may use the binding as scratch, provided what
	// BindPoint wrote survives: one goroutine draws a given binding at
	// a time.
	EvalBlockBound(bound []float64, outs [][]float64, master uint64, ids []int, r *rng.Rand)
}

// BoundBox adapts a black box to a PointEval by binding its positional
// arguments to parameters of a space: the parameter names resolve to
// value-row positions once, in BindBox. A blackbox.DrawBox binds once
// per point (the binding is the arguments, then the state Bind wrote)
// and draws a block by one Apply of its samples' draw vectors, which
// the BoundBox's DrawTable holds by sample id; a block with an id past
// the table's bound, and any other box, draws through the generator
// the engine lends, reseeded once per sample.
type BoundBox struct {
	box   blackbox.Box
	draw  blackbox.DrawBox    // box as a DrawBox, or nil
	table *blackbox.DrawTable // draw's vectors by sample id
	space *param.Space
	pos   []int // argument i is vals[pos[i]]
}

// Space implements PointEval.
func (b *BoundBox) Space() *param.Space { return b.space }

// BindPoint implements PointEval.
func (b *BoundBox) BindPoint(vals, buf []float64) []float64 {
	n, m := len(b.pos), len(b.pos)
	if b.draw != nil {
		m += b.draw.BoundLen()
	}
	buf = slices.Grow(buf[:0], m)[:m]
	for j, i := range b.pos {
		buf[j] = vals[i]
	}
	if b.draw != nil {
		b.draw.Bind(buf[:n], buf[n:])
	}
	return buf
}

// EvalBlockBound implements PointEval: output 0 is the box's draw.
func (b *BoundBox) EvalBlockBound(bound []float64, outs [][]float64, master uint64, ids []int, r *rng.Rand) {
	out := outs[0]
	if out == nil { // output 0 not requested
		return
	}
	args := bound[:len(b.pos)]
	if b.table != nil {
		if vals, all := b.table.Load(master, ids); all {
			b.draw.Apply(bound[len(args):], vals, b.table.Width(), ids, out)
			return
		}
	}
	for j, id := range ids {
		r.Seed(rng.SampleSeed(master, id))
		out[j] = b.box.Eval(args, r)
	}
}

// BindBox adapts a black box to a PointEval over space's value rows by
// binding its positional arguments to the named enumerable parameters.
// It rejects a nil space and a name the space does not declare.
func BindBox(b blackbox.Box, space *param.Space, argNames ...string) (PointEval, error) {
	switch {
	case space == nil:
		return nil, fmt.Errorf("mc: %s: nil parameter space", b.Name())
	case len(argNames) != b.Arity():
		return nil, fmt.Errorf("mc: %s expects %d args, got %d names", b.Name(), b.Arity(), len(argNames))
	}
	pos := make([]int, len(argNames))
	for i, name := range argNames {
		var ok bool
		if pos[i], ok = space.Position(name); !ok {
			return nil, fmt.Errorf("mc: %s: the space declares no enumerable parameter @%s", b.Name(), name)
		}
	}
	bb := &BoundBox{box: b, space: space, pos: pos}
	if d, ok := b.(blackbox.DrawBox); ok {
		bb.draw, bb.table = d, blackbox.NewDrawTable(d.Draws(), d.Draw)
	}
	return bb, nil
}

// MustBindBox is BindBox, panicking on error.
func MustBindBox(b blackbox.Box, space *param.Space, argNames ...string) PointEval {
	f, err := BindBox(b, space, argNames...)
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
	// KeepSamples is ignored: a basis retains the rows match
	// validation reads and no others (see BasisPayload.Samples). The
	// field stays declared only for callers that still set it.
	KeepSamples bool
	// ValidationSamples extends every successful fingerprint match
	// with that many additional paired samples before trusting it —
	// the batch-mode application of §5's "Validation" task. It guards
	// against the §6.2 false-positive risk on indicator-style outputs,
	// where m identical samples (e.g. ten zeros of a rare overload
	// flag) can match a basis whose true distribution differs. The
	// validation rounds are rounds m to m+v−1, v = min(ValidationSamples,
	// Samples−FingerprintLen). Every point draws them with its
	// fingerprint, as its prefix, so the cost is v extra rounds per
	// reused point, and a point that is simulated after all keeps them
	// as its samples. With Reuse, each basis retains its first m+v
	// rounds to compare against, not all Samples. 0 (the default)
	// reproduces the paper's behavior exactly.
	ValidationSamples int
	// Workers is the number of goroutines a sweep spreads its points
	// over, the calling goroutine included; 0 means GOMAXPROCS, 1 runs
	// the sweep on the calling goroutine alone, negative
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

// withDefaults rejects option values that no default repairs and
// returns a copy with unset fields defaulted.
func (o Options) withDefaults() (Options, error) {
	switch {
	case o.Samples < 0:
		return o, fmt.Errorf("mc: negative Samples %d", o.Samples)
	case o.FingerprintLen < 0:
		return o, fmt.Errorf("mc: negative FingerprintLen %d", o.FingerprintLen)
	case o.Workers < 0:
		return o, fmt.Errorf("mc: negative Workers %d", o.Workers)
	case o.ValidationSamples < 0:
		return o, fmt.Errorf("mc: negative ValidationSamples %d", o.ValidationSamples)
	case o.Index < IndexArray || o.Index > IndexSortedSID:
		return o, fmt.Errorf("mc: unknown index %v", o.Index)
	}
	if o.Samples == 0 {
		o.Samples = 1000
	}
	if o.FingerprintLen == 0 {
		o.FingerprintLen = 10
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

// newIndex instantiates the configured index strategy.
func (o Options) newIndex() core.Index {
	switch o.Index {
	case IndexNormalization:
		return core.NewNormalizationIndex()
	case IndexSortedSID:
		return core.NewSortedSIDIndex()
	default:
		return core.NewArrayIndex()
	}
}

// BasisPayload is what the engine stores with each basis distribution:
// the summary metrics plus, when the engine validates matches, the
// first rows of the samples behind them.
type BasisPayload struct {
	// Summary holds the estimator output oi for the basis point.
	Summary stats.Summary
	// Samples holds the basis' seed-aligned rounds 0 to m+v−1, its
	// owner point's prefix, when the engine validates (Reuse with
	// ValidationSamples > 0), and is nil otherwise: validation compares
	// matches on rounds m to m+v−1, and nothing reads later rounds. It
	// is set at registration and never written afterwards, so it is
	// final even while the payload is pending.
	Samples []float64

	// pending is nonzero between the engine registering the basis at a
	// miss (decide) and filling in its simulation results (complete).
	// Everywhere else payloads are constructed complete, so the zero
	// value reads as ready.
	pending atomic.Uint32
	// owner is the token of the engine call that registered the basis:
	// a sweep's, from Engine.sweeps, or 0 for EvaluatePoint.
	owner uint64
}

// markPending flags the payload as incomplete; it must be called
// before the payload is published through Store.Add.
func (p *BasisPayload) markPending() { p.pending.Store(1) }

// complete publishes the filled fields: the atomic store orders the
// preceding plain writes before any reader that observes Ready.
func (p *BasisPayload) complete() { p.pending.Store(0) }

// Ready reports whether the payload's Summary is final. A
// payload is not ready while the engine call that registered it is
// still simulating its point; it stays not ready indefinitely if a
// panicking evaluator abandoned the call mid-flight. The engine's match filters skip bases
// that are not ready, except a sweep's own, so an abandoned
// registration costs one redundant simulation (the next miss registers
// a usable duplicate) and never a wrong answer.
func (p *BasisPayload) Ready() bool { return p.pending.Load() == 0 }

// payloadReady is EvaluatePoint's Store.Match accept filter: bases whose
// payloads are still (or forever) incomplete, and bases whose payload
// is not a *BasisPayload at all, are skipped during candidate
// scanning. Every basis a match returns can therefore be mapped.
func payloadReady(b *core.Basis) bool {
	p, ok := b.Payload.(*BasisPayload)
	return ok && p.Ready()
}

// PointResult is the engine's answer for one parameter point.
type PointResult struct {
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

// Engine evaluates parameter points with optional fingerprint reuse,
// against one basis store per evaluator output (outputs are different
// stochastic functions), each kept for the engine's life.
//
// An Engine is safe for concurrent use: each basis store is guarded by
// a read-write lock, every call returns its own statistics, and
// per-worker scratch state is pooled, so independent goroutines (e.g.
// interactive sessions sharing a warmed store) may call EvaluatePoint
// concurrently. Note that concurrent EvaluatePoint callers race
// benignly on basis registration: a caller skips a basis another
// caller registered but has not finished simulating, so both may
// fully simulate the same fingerprint family. Sweeps avoid that by
// sequencing all store decisions in enumeration order, which also
// makes their results bit-identical for every Workers setting.
type Engine struct {
	opts   Options
	mu     sync.Mutex    // guards the growth of stores
	stores []*core.Store // output c's basis store at c
	// sweeps hands each sweep the token that marks the pending bases
	// it owns (from 1; EvaluatePoint owns as 0).
	sweeps atomic.Uint64

	// scratches recycles per-worker hot-path buffers (see scratch.go).
	scratches *pool.Pool[scratch]
	// blockSize is the number of samples drawn per block
	// (DefaultBlockSize; tests vary it to pin block-size invariance).
	blockSize int
}

// New constructs an engine.
func New(opts Options) (*Engine, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if opts.FingerprintLen > opts.Samples {
		return nil, fmt.Errorf("mc: fingerprint length %d exceeds sample count %d",
			opts.FingerprintLen, opts.Samples)
	}
	return &Engine{
		opts:      opts,
		scratches: pool.NewPool[scratch](),
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

// Store exposes output 0's basis store, the one Sweep, SweepBatch and
// EvaluatePoint use, for read-only inspection of its bases and size.
func (e *Engine) Store() *core.Store { return e.outputStores(1)[0] }

// outputStores returns the basis stores of outputs 0 to k−1, creating
// those not used before (stores are never replaced).
func (e *Engine) outputStores(k int) []*core.Store {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.stores) < k {
		e.stores = append(e.stores, core.NewStore(e.opts.Class, e.opts.newIndex()))
	}
	return e.stores[:k:k]
}

// Options returns the engine's effective options.
func (e *Engine) Options() Options { return e.opts }

// drawRows binds vals once into sc.bound and draws the rounds lo to
// hi−1 into dsts[c][lo:hi] for each non-nil output c, on the calling
// goroutine: parallelism lives outside a point (a sweep spreads its
// points over the pool). Rounds 0 to m−1 are the fingerprint (§3.1).
func (e *Engine) drawRows(f PointEval, vals []float64, dsts [][]float64, lo, hi int, sc *scratch) {
	sc.bound = f.BindPoint(vals, sc.bound)
	e.sampleRange(f, sc.bound, dsts, lo, hi, sc)
}

// EvaluatePoint runs the Monte Carlo estimation for one value row,
// reusing a basis distribution when the store yields a mapping, and
// returns the point's result with this call's statistics (Points: 1).
// It runs a sweep's phases on its one point, on the calling goroutine.
func (e *Engine) EvaluatePoint(f PointEval, vals []float64) (PointResult, SweepStats) {
	sc := e.scratches.Get()
	defer e.scratches.Put(sc)
	sc.prefixes = grow(sc.prefixes, e.prefixLen())
	var plans [1]pointPlan
	var res [1]PointResult
	st := SweepStats{Points: 1}
	e.drawPrefixes(f, vals, sc.prefixes, 1, sc)
	e.decide(e.outputStores(1), 0, payloadReady, plans[:], sc.prefixes, sc, &st)
	e.complete(f, vals, plans[:], sc.prefixes, res[:], sc)
	e.mapHits(plans[:], res[:])
	st.FullSimulations = st.Points - st.Reused
	return res[0], st
}

// prefixLen is w, the rows of a point drawn before its reuse
// decision: the m fingerprint rounds, then v, the paired rounds on
// which a match is validated — ValidationSamples clamped to the n−m
// rounds there are, or 0 when the engine trusts matches as-is (no
// reuse or no validation).
func (e *Engine) prefixLen() int {
	o := e.opts
	if !o.Reuse || o.ValidationSamples <= 0 {
		return o.FingerprintLen
	}
	return min(o.FingerprintLen+o.ValidationSamples, o.Samples)
}

// summarize returns the result of a fully simulated point.
func (e *Engine) summarize(samples []float64, sc *scratch) PointResult {
	acc := &sc.acc
	acc.Reset()
	acc.AddBlock(samples)
	return PointResult{Summary: acc.Summarize(), BasisID: -1}
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
// EvaluatePoint, a SweepStream, a Sweep or a SweepBatch. Every count
// covers that call alone, so a call's Points == FullSimulations +
// Reused (and == Store.Queries with reuse on) on a fresh engine or a
// warmed one; Add sums calls.
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
