package mc

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"jigsaw/internal/core"
	"jigsaw/internal/pool"
)

// This file implements the sweep: the evaluation of a stream of value
// rows on the engine's workers, with results bit-identical for every
// worker count. There is one sweep implementation, SweepStream, over k
// outputs of one evaluator, each against its own basis store; Sweep
// and SweepBatch collect its one-output case. Workers spread
// points, never a point's samples: each row (one sample, all k outputs)
// of a point draws on the goroutine that holds the point.
//
// A naive parallel sweep would race on the basis store: whichever
// point finishes first registers the basis, and every other mappable
// point's result depends on that timing. Instead each point passes
// through three phases (DESIGN.md, "Concurrency model" and
// "Deterministic sweep"), each an engine method on one point that
// EvaluatePoint runs too, back to back on its one point:
//
//	A. drawPrefixes: the point's prefix — no store access: its rows
//	   0 to w−1, whose first m are the k fingerprints and the rest the
//	   match-validation targets (w = m without validation);
//	B. decide: for each output, one Store.Match against that output's
//	   store (plus match validation, when enabled), then the decision —
//	   reuse the matched basis, or register the point as a new basis
//	   whose payload stays pending until phase C1 fills it. Phase B
//	   calls no evaluator;
//	C. complete: the full simulation — the point's remaining n−w rows
//	   once, for every output that missed there — then mapHits: mapped
//	   results for the hits, each deterministic given phase B.
//
// The sweep pipelines the phases over a window of points in flight.
// Workers draw prefixes ahead, a chunk of consecutive points at a time,
// and run each miss's simulation as soon as it is decided. The calling
// goroutine decides points strictly in enumeration order as their
// prefixes land, maps a point's hits when the point's turn comes, hands
// its results to emit in enumeration order, and only then recycles the
// point's window slot. It is one of the Workers: whenever it has
// nothing to decide or emit it runs a queued draw or simulation, and
// it blocks on a channel when nothing is queued. There are no
// barriers between phases, and at Workers: 1 the calling goroutine is
// the only one.
//
// The reference semantics is, per output, a loop of EvaluatePoint
// calls in enumeration order on an engine of the same options sweeping
// that output alone: each store sees exactly that loop's Match/Add
// sequence (stores are per output, and phase B visits the points of
// every output in order), and the sweep's statistics are the sum of
// those loops' per-call statistics. Sample j of output c is output c
// of row j, so one row serves every output. Match validation
// (ValidationSamples with Reuse — off by default) adds only
// comparisons to phase B: an output's v validation targets are the
// point's rows m to m+v−1, which depend on the point and the seeds
// alone, so phase A draws them with the fingerprint. They are compared
// against the rows the matched basis retained: a validating engine
// gives each new basis a copy of its owner's prefix at registration,
// and nothing writes that copy afterwards, so a pending basis
// validates as a ready one does. The sweep's match filter admits its
// own pending bases, by the owner token their payloads carry, and
// skips every other call's. A miss keeps its whole prefix as the first
// w of its samples, so no row is drawn twice. A hit maps from a basis
// whose owner came earlier in the stream, so the owner has been
// emitted, and its payload is complete, by the time the hit's turn
// comes.
//
// Each goroutine owns one scratch for the whole sweep: the window's
// prefixes fill one backing array held by the calling goroutine's
// scratch, probes reuse candidate buffers, and simulations reuse the
// binding and one sample buffer per output — the steady-state
// allocation per point is O(1) (see scratch.go). A panicking evaluator
// stops the sweep with an error naming its point.

// window is the number of points a sweep holds in flight — drawn ahead,
// decided, simulating or waiting to be emitted — or the sweep's point
// count, when that is smaller. Point i lives in slot i mod window,
// which holds its value row, prefix, plans and results, until it is
// emitted. It is fixed, not tied to Workers, and results cannot depend
// on it: phase B decides in enumeration order whatever is in flight.
const window = 128

// chunk is the number of consecutive points one prefix task draws, so
// that a point pays a fraction of a task's channel round trip. It
// divides window, so the window holds whole chunks.
const chunk = 8

// Sweep evaluates every point of f's space in enumeration order and
// returns per-point results plus this call's reuse statistics. This
// is Jigsaw's batch-mode inner loop (Fig. 3): Parameter Enumerator →
// PDB → basis reuse. The points are spread over the engine's workers
// (Options.Workers); results and statistics are bit-identical for
// every worker count.
func (e *Engine) Sweep(f PointEval) ([]PointResult, SweepStats, error) {
	space := f.Space()
	if space == nil {
		return nil, SweepStats{}, errors.New("mc: evaluator has no parameter space")
	}
	results := make([]PointResult, space.Size())
	st, err := e.SweepStream(f, 1, len(results), space.Values, func(i int, res []PointResult) {
		results[i] = res[0]
	})
	if err != nil {
		return nil, SweepStats{}, err
	}
	return results, st, nil
}

// SweepBatch evaluates an explicit list of points, value rows of the
// space f was built against, in slice order, with the same determinism
// guarantee as Sweep. A row too short for f comes back as an error
// naming it.
func (e *Engine) SweepBatch(f PointEval, points [][]float64) ([]PointResult, SweepStats, error) {
	results := make([]PointResult, len(points))
	row := func(i int, dst []float64) []float64 { return append(dst, points[i]...) }
	st, err := e.SweepStream(f, 1, len(points), row, func(i int, res []PointResult) {
		results[i] = res[0]
	})
	if err != nil {
		return nil, SweepStats{}, err
	}
	return results, st, nil
}

// SweepStream sweeps the k outputs of f over points 0 to n−1, output c
// against its own basis store, drawing each sample once for all k
// outputs, and returns the call's statistics, summed over the outputs.
// row(i, dst) appends point i's value row to dst, an empty buffer the
// sweep owns, and returns it. emit(i, res) receives point
// i's results, output c's at res[c], valid only during the call. Both
// run on the calling goroutine, row in enumeration order a window's
// length ahead of emit, emit in enumeration order; nothing of the sweep
// runs after SweepStream returns. Results are bit-identical for every
// worker count. A panicking evaluator stops the sweep with an error
// naming the point, `point <i> [<values>]: panic: <value>`, after
// which emit is not called again. See the file comment for the
// pipeline and DESIGN.md for the determinism argument.
func (e *Engine) SweepStream(f PointEval, k, n int, row func(i int, dst []float64) []float64, emit func(i int, res []PointResult)) (SweepStats, error) {
	if k < 1 {
		return SweepStats{}, fmt.Errorf("mc: sweep of %d outputs", k)
	}
	s := e.newStream(f, k, n)
	defer s.close()
	published, decided, emitted := 0, 0, 0
	for emitted < n {
		progress := false
		// Publish whole chunks while the window has room for them.
		for published < n {
			hi := min(published+chunk, n)
			if hi-emitted > s.slots {
				break
			}
			for i := published; i < hi; i++ {
				j := s.slot(i)
				s.rows[j] = row(i, s.rows[j][:0])
				s.stages[j] = slotDrawing
			}
			s.draws <- published
			published, progress = hi, true
		}
		// Phase B, strictly in enumeration order.
		for decided < published && s.stages[s.slot(decided)] == slotDrawn {
			s.decide(decided)
			decided, progress = decided+1, true
		}
		// Phase C2 and emission, in enumeration order.
		for emitted < decided && s.stages[s.slot(emitted)] == slotDone {
			j := s.slot(emitted)
			res := s.results[j*k : (j+1)*k]
			e.mapHits(s.plans[j*k:(j+1)*k], res)
			emit(emitted, res)
			emitted, progress = emitted+1, true
		}
		if progress {
			continue
		}
		if perr := s.wait(); perr != nil {
			return SweepStats{}, fmt.Errorf("point %d %v: %w", perr.Index, s.rows[s.slot(perr.Index)], perr)
		}
	}
	s.st.FullSimulations = s.st.Points - s.st.Reused
	return s.st, nil
}

// Slot stages: a published point's progress. A slot's stage is read
// and written on the calling goroutine only; workers learn of a slot
// through the tasks they are handed.
const (
	slotDrawing    uint8 = iota // its chunk's prefix task is queued or running
	slotDrawn                   // prefix drawn, awaiting its decision
	slotSimulating              // decided; a miss's simulation is queued or running
	slotDone                    // results complete, awaiting emission
)

// stream is one SweepStream call's state.
type stream struct {
	e    *Engine
	f    PointEval
	k, w int
	// n is the number of points, slots the window's size: window, or n
	// when that is smaller.
	n, slots int
	stores   []*core.Store
	owner    uint64
	accept   func(*core.Basis) bool
	st       SweepStats

	// The window, held by the calling goroutine's scratch: slot j's
	// entries are rows[j], stages[j], plans[j·k:], results[j·k:] and
	// prefixes[j·k·w:] (point-major: a point's k plans and k prefixes
	// are contiguous).
	rows     [][]float64
	stages   []uint8
	plans    []pointPlan
	results  []PointResult
	prefixes []float64

	// scratches[g] is goroutine g's, the calling goroutine's at 0.
	scratches []*scratch
	// A task is a point index: draws queues the first point of each
	// chunk to draw (phase A), sims each decided point to simulate
	// (phase C1), and done carries back the task each worker finished.
	// draws and sims hold every task the window can have outstanding,
	// so the calling goroutine never blocks on a send. done holds a
	// window's worth of chunks: a worker waits on it only while the
	// calling goroutine is busy, and gives up once the sweep stops.
	draws, sims, done chan int
	// stop closes when the sweep ends; failed holds the first panic a
	// task recovered, and the workers start no task once it is set.
	stop    chan struct{}
	failed  atomic.Pointer[pool.PanicError]
	workers sync.WaitGroup
}

// newStream sets up a sweep of n points and starts its workers: with
// the calling goroutine, Workers goroutines, at most one per point.
func (e *Engine) newStream(f PointEval, k, n int) *stream {
	w, slots := e.prefixLen(), max(1, min(window, n))
	owner := e.sweeps.Add(1)
	s := &stream{
		e: e, f: f, k: k, w: w, n: n, slots: slots,
		stores: e.outputStores(k),
		owner:  owner,
		// accept admits ready bases and this sweep's own pending ones
		// (their owners are emitted, and so complete, before any hit
		// on them is mapped), and skips bases another call has not
		// completed — or, if a panicking evaluator abandoned it,
		// never will.
		accept: func(b *core.Basis) bool {
			p, ok := b.Payload.(*BasisPayload)
			return ok && (p.owner == owner || p.Ready())
		},
		st:        SweepStats{Points: k * n},
		scratches: make([]*scratch, max(1, min(e.opts.Workers, n))),
		draws:     make(chan int, window/chunk),
		sims:      make(chan int, slots),
		done:      make(chan int, window/chunk),
		stop:      make(chan struct{}),
	}
	for g := range s.scratches {
		s.scratches[g] = e.scratches.Get()
	}
	sc := s.scratches[0]
	sc.rows = grow(sc.rows, slots)
	sc.stages = grow(sc.stages, slots)
	sc.plans = grow(sc.plans, slots*k)
	sc.results = grow(sc.results, slots*k)
	sc.prefixes = grow(sc.prefixes, slots*k*w)
	s.rows, s.stages, s.plans, s.results, s.prefixes = sc.rows, sc.stages, sc.plans, sc.results, sc.prefixes
	for g := 1; g < len(s.scratches); g++ {
		s.workers.Add(1)
		go s.work(g)
	}
	return s
}

// close stops the workers, once they finish what they are running, and
// recycles the scratches; nothing of the sweep runs past it.
func (s *stream) close() {
	close(s.stop)
	s.workers.Wait()
	for _, sc := range s.scratches {
		s.e.scratches.Put(sc)
	}
}

// take returns a queued task without waiting. A worker takes a
// simulation before a draw, so a decided miss starts at once; the
// calling goroutine takes a draw first, a chunk of short prefixes,
// and so gets back to its decisions sooner.
func (s *stream) take(caller bool) (i int, sim, ok bool) {
	first, second := s.sims, s.draws
	if caller {
		first, second = s.draws, s.sims
	}
	select {
	case i = <-first:
		return i, first == s.sims, true
	default:
	}
	select {
	case i = <-second:
		return i, second == s.sims, true
	default:
		return 0, false, false
	}
}

// work is worker g's loop: it runs queued tasks and reports each
// back, until the sweep ends or a task panics.
func (s *stream) work(g int) {
	defer s.workers.Done()
	for {
		i, sim, ok := s.take(false)
		if !ok {
			select {
			case i = <-s.sims:
				sim = true
			case i = <-s.draws:
			case <-s.stop:
				return
			}
		}
		if s.failed.Load() != nil {
			return
		}
		if perr := s.run(i, sim, g); perr != nil {
			s.failed.CompareAndSwap(nil, perr)
		}
		select {
		case s.done <- i:
		case <-s.stop:
			return
		}
	}
}

// wait is the calling goroutine's turn when it has nothing to publish,
// decide or emit: it finishes a task a worker finished, else one it
// takes and runs itself, else the next one a worker finishes (only the
// calling goroutine queues tasks, so none appears while it waits). It
// returns the sweep's first panic, if there is one.
func (s *stream) wait() *pool.PanicError {
	var i int
	select {
	case i = <-s.done:
	default:
		var sim, ok bool
		if i, sim, ok = s.take(true); !ok {
			i = <-s.done
		} else if perr := s.run(i, sim, 0); perr != nil {
			s.failed.CompareAndSwap(nil, perr)
		}
	}
	s.finish(i)
	return s.failed.Load()
}

// run carries out a task on goroutine g: the simulation of point i, or
// the prefixes of the chunk that starts at i. It returns the panic of
// the point that panicked.
func (s *stream) run(i int, sim bool, g int) *pool.PanicError {
	fn, hi := s.drawPoint, min(i+chunk, s.n)
	if sim {
		fn, hi = s.simulatePoint, i+1
	}
	for ; i < hi; i++ {
		if perr := pool.Call(fn, g, i); perr != nil {
			return perr
		}
	}
	return nil
}

// slot returns point i's window slot.
func (s *stream) slot(i int) int { return i % s.slots }

// finish records, on the calling goroutine, that the task at point i
// is done: the chunk that starts there is drawn, or the point is
// simulated.
func (s *stream) finish(i int) {
	if j := s.slot(i); s.stages[j] == slotSimulating {
		s.stages[j] = slotDone
		return
	}
	for hi := min(i+chunk, s.n); i < hi; i++ {
		s.stages[s.slot(i)] = slotDrawn
	}
}

// drawPoint is phase A at point i, on goroutine g.
func (s *stream) drawPoint(g, i int) {
	j, k := s.slot(i), s.k
	s.e.drawPrefixes(s.f, s.rows[j], s.prefixes[j*k*s.w:(j+1)*k*s.w], k, s.scratches[g])
}

// simulatePoint is phase C1 at point i, on goroutine g.
func (s *stream) simulatePoint(g, i int) {
	j, k := s.slot(i), s.k
	s.e.complete(s.f, s.rows[j], s.plans[j*k:(j+1)*k], s.prefixes[j*k*s.w:(j+1)*k*s.w], s.results[j*k:(j+1)*k], s.scratches[g])
}

// decide is phase B at point i, on the calling goroutine: it decides
// the point's outputs and queues the simulation of its misses.
func (s *stream) decide(i int) {
	j, k := s.slot(i), s.k
	plans := s.plans[j*k : (j+1)*k]
	s.e.decide(s.stores, s.owner, s.accept, plans, s.prefixes[j*k*s.w:(j+1)*k*s.w], s.scratches[0], &s.st)
	s.stages[j] = slotDone
	for _, pl := range plans {
		if pl.simulate {
			s.stages[j] = slotSimulating
			s.sims <- i
			return
		}
	}
}

// pointPlan is one (point, output) pair's reuse decision, which
// complete and mapHits carry out.
type pointPlan struct {
	// basis and mapping hold the decision: the matched basis and its
	// mapping (reuse), or the newly registered basis (simulate, with
	// reuse enabled; nil otherwise).
	basis   *core.Basis
	mapping core.Linear
	// simulate marks a miss: the output is fully simulated at the
	// point.
	simulate bool
}

// drawPrefixes is phase A at one point: it draws rows 0 to w−1 of its
// k outputs into prefixes, output c's at prefixes[c·w:(c+1)·w]. The
// first m rows of a prefix are the output's fingerprint, the rest its
// match-validation targets.
func (e *Engine) drawPrefixes(f PointEval, vals, prefixes []float64, k int, sc *scratch) {
	w := e.prefixLen()
	dsts := sc.outputs(k)
	for c := range dsts {
		dsts[c] = prefixes[c*w : (c+1)*w]
	}
	e.drawRows(f, vals, dsts, 0, w, sc)
}

// decide is phase B at one point: for each output c, one lookup in
// stores[c] through accept, validated on the prefix's rows m to w−1,
// then plans[c] either reuses the match or registers the point as a
// basis whose Summary stays pending until complete fills it. The
// pending payload is marked with owner and, when the engine validates
// (w > m), retains a copy of the prefix, the rows a later match is
// validated on. decide calls no evaluator and tallies the decisions
// into st.
func (e *Engine) decide(stores []*core.Store, owner uint64, accept func(*core.Basis) bool, plans []pointPlan, prefixes []float64, sc *scratch, st *SweepStats) {
	m, w := e.opts.FingerprintLen, e.prefixLen()
	for c := range plans {
		plans[c] = pointPlan{simulate: true}
		if !e.opts.Reuse {
			continue
		}
		prefix := prefixes[c*w : (c+1)*w : (c+1)*w]
		fp := prefix[:m:m]
		basis, mapping, ok, scanned := stores[c].Match(fp, accept, &sc.probe)
		st.Store.Queries++
		st.Store.CandidatesScanned += scanned
		if ok {
			st.Store.Hits++
			if e.validateMatch(mapping, basis.Payload.(*BasisPayload).Samples, prefix) {
				plans[c] = pointPlan{basis: basis, mapping: mapping}
				st.Reused++
				continue
			}
		}
		payload := &BasisPayload{owner: owner}
		if w > m {
			payload.Samples = slices.Clone(prefix)
		}
		payload.markPending()
		if basis, err := stores[c].Add(fp, payload); err == nil {
			plans[c].basis = basis
			st.Store.Bases++
		}
	}
}

// validateMatch re-validates a fingerprint match on the paired rounds
// after the fingerprint, m to w−1: the mapping must carry round i of
// the basis' samples onto round i of the point's own prefix (both
// indexed by round id, so the pairs share a seed). Rounds the basis
// did not retain are not compared, so a basis without retained samples
// is trusted as-is (the paper's behavior).
func (e *Engine) validateMatch(mapping core.Linear, basis, prefix []float64) bool {
	for i := e.opts.FingerprintLen; i < min(len(prefix), len(basis)); i++ {
		if !core.ApproxEqual(mapping.Apply(basis[i]), prefix[i]) {
			return false
		}
	}
	return true
}

// complete is phase C1 at one point: it draws the point's remaining
// rows w to n−1, once, for every output that missed there, into
// scratch after its prefix, then fills the summaries of the bases
// their plans registered and writes their results to res[c].
func (e *Engine) complete(f PointEval, vals []float64, plans []pointPlan, prefixes []float64, res []PointResult, sc *scratch) {
	w := e.prefixLen()
	dsts := sc.outputs(len(plans))
	need := false
	for c, plan := range plans {
		if !plan.simulate {
			continue
		}
		need = true
		dsts[c] = sc.floats(c, e.opts.Samples)
		copy(dsts[c], prefixes[c*w:(c+1)*w])
	}
	if !need {
		return
	}
	e.drawRows(f, vals, dsts, w, e.opts.Samples, sc)
	for c, samples := range dsts {
		if samples == nil {
			continue
		}
		r := e.summarize(samples, sc)
		if b := plans[c].basis; b != nil {
			payload := b.Payload.(*BasisPayload)
			payload.Summary = r.Summary
			payload.complete()
			r.BasisID = b.ID
		}
		res[c] = r
	}
}

// mapHits is phase C2 at one point: the mapped result of every output
// that hit there, pushing the mapping through the basis' summary. A
// basis reused by a sweep was either ready at its decision or
// registered by an earlier point of the same sweep, which is complete
// by the time mapHits runs.
func (e *Engine) mapHits(plans []pointPlan, res []PointResult) {
	for c, plan := range plans {
		if !plan.simulate {
			res[c] = PointResult{
				Summary: plan.basis.Payload.(*BasisPayload).Summary.MapAffine(plan.mapping.Alpha, plan.mapping.Beta),
				Reused:  true,
				BasisID: plan.basis.ID,
				Mapping: plan.mapping,
			}
		}
	}
}
