package mc

import (
	"errors"
	"fmt"

	"jigsaw/internal/core"
	"jigsaw/internal/param"
	"jigsaw/internal/pool"
)

// This file implements the sweep: the evaluation of a parameter space
// (or an explicit batch of points) on the engine's worker pool, with
// results bit-identical for every worker count. There is one sweep
// implementation, over k outputs of one evaluator: SweepRows sweeps
// the k outputs of a PointEval, each on its own engine, and Sweep and
// SweepBatch are its k=1 case. The pool spreads points, never a
// point's samples: each row (one sample, all k outputs) of a point
// draws on the worker that holds the point. At Workers: 1 the pool
// degrades to a plain loop on the calling goroutine (pool.ForWorker)
// and the phases below run back to back.
//
// A naive parallel sweep would race on the basis store: whichever
// point finishes first registers the basis, and every other mappable
// point's result depends on that timing. Instead the sweep runs in
// three phases (DESIGN.md, "Concurrency model" and "Deterministic
// sweep"):
//
//	A. every point's prefix, in parallel — no store access: its rows
//	   0 to w−1, whose first m are the k fingerprints and the rest the
//	   match-validation targets (w = m without validation);
//	B. a serial loop in enumeration order, point-major: for each point
//	   and each output, one Store.Match against that output's store
//	   (plus match validation, when enabled), then the decision —
//	   reuse the matched basis, or register the point as a new basis
//	   whose payload stays pending until phase C1 fills it. Phase B
//	   calls no evaluator;
//	C. full simulations in parallel — a point's remaining n−w rows
//	   once, for every output that missed there — then mapped results
//	   for the hits, each deterministic given phase B.
//
// The reference semantics is, per output, a loop of EvaluatePoint
// calls in enumeration order on that output's engine: each store sees
// exactly that loop's Match/Add sequence (stores are per output, and
// phase B visits the points of every output in order), and the
// sweep's statistics are the sum of those loops' per-call statistics.
// Sharing a row between outputs is sound because the engines agree on
// Samples, FingerprintLen and MasterSeed: sample j of output c is
// output c of row j. Phase B costs one probe per point and output, small
// against the model evaluations of phases A and C. Match validation
// (ValidationSamples with Reuse — off by default) adds only
// comparisons to it: an output's v validation targets are the point's
// rows m to m+v−1, which depend on the point and the seeds alone, so
// phase A draws them with the fingerprint. They are compared against
// the matched basis' retained samples (a validating engine retains
// them whatever KeepSamples says) — or, for a basis this sweep
// registered and has not simulated yet, against its owner's prefix,
// which holds the same rows. A miss keeps its whole prefix as the
// first w of its samples, so no row is drawn twice.
//
// Every phase runs on pool.ForWorker so each worker id owns one
// scratch for the whole sweep: prefixes fill one backing array held
// by worker 0's scratch, probes reuse candidate buffers, and simulations
// reuse the binding and one sample buffer per output — the steady-state
// allocation per point is O(1) (see scratch.go). A panicking
// evaluator stops the sweep with an error naming its point.

// Sweep evaluates every point of the space in enumeration order and
// returns per-point results plus this call's reuse statistics. This
// is Jigsaw's batch-mode inner loop (Fig. 3): Parameter Enumerator →
// PDB → basis reuse. The points are spread over the engine's worker pool
// (Options.Workers); results and statistics are bit-identical for
// every worker count.
func (e *Engine) Sweep(f PointEval, space *param.Space) ([]PointResult, SweepStats, error) {
	if space == nil {
		return nil, SweepStats{}, errors.New("mc: nil parameter space")
	}
	return e.sweep(f, space.Points())
}

// SweepBatch evaluates an explicit list of parameter points through
// the engine's worker pool, in slice order, with the same determinism
// guarantee as Sweep. It is the building block for callers that
// compose points themselves: the optimizer's (group × sweep) product,
// a graph statement's domain walk, or an interactive prefetch batch.
func (e *Engine) SweepBatch(f PointEval, points []param.Point) ([]PointResult, SweepStats, error) {
	return e.sweep(f, points)
}

// sweep is the single-output sweep: the k=1 case of the row sweep.
func (e *Engine) sweep(f PointEval, points []param.Point) ([]PointResult, SweepStats, error) {
	results, st, err := sweepRows([]*Engine{e}, f, points)
	if err != nil {
		return nil, SweepStats{}, err
	}
	return results[0], st, nil
}

// SweepRows sweeps the k = len(engines) outputs of f over points, in
// slice order: output c is answered by engines[c] — its own basis
// store, and its own options for reuse, validation and summaries. Each
// sample is drawn once for all k outputs. results[c] holds output c's
// per-point results, and they and the returned statistics (summed over
// the outputs) are bit-identical to k separate SweepBatch calls,
// engine c sweeping output c of f alone. The engines must be distinct
// and agree on Samples, FingerprintLen and MasterSeed; the sweep runs
// on engines[0]'s worker pool.
func SweepRows(engines []*Engine, f PointEval, points []param.Point) ([][]PointResult, SweepStats, error) {
	if len(engines) == 0 {
		return nil, SweepStats{}, errors.New("mc: SweepRows needs at least one output")
	}
	lead := engines[0].opts
	for c, e := range engines {
		if o := e.opts; o.Samples != lead.Samples || o.FingerprintLen != lead.FingerprintLen || o.MasterSeed != lead.MasterSeed {
			return nil, SweepStats{}, fmt.Errorf("mc: engine %d samples differently from engine 0 (Samples, FingerprintLen, MasterSeed)", c)
		}
		for _, prev := range engines[:c] {
			if prev == e {
				return nil, SweepStats{}, fmt.Errorf("mc: engine %d repeats an earlier output's engine", c)
			}
		}
	}
	return sweepRows(engines, f, points)
}

// pointPlan is one (output, point) pair's record through the phases:
// phase B's decision, which phases C1 and C2 carry out.
type pointPlan struct {
	// basis and mapping hold the decision: the matched basis and its
	// mapping (reuse), or the newly registered basis (simulate, with
	// reuse enabled; nil otherwise).
	basis   *core.Basis
	mapping core.Linear
	// simulate marks a miss: the output is fully simulated at the
	// point in phase C1.
	simulate bool
}

// rowSweep is one sweep call's state over k outputs and n points.
type rowSweep struct {
	engines []*Engine
	f       PointEval
	points  []param.Point
	k, n, m int
	// w is the prefix width: m plus the widest output's validation
	// rounds.
	w int
	// prefixes backs all k·n prefixes, on worker 0's scratch: misses
	// donate their fingerprints to the store, which clones them, and
	// copy their prefixes into their sample vectors, so nothing
	// outlives the sweep.
	prefixes []float64
	// plans and results are indexed by output, then point.
	plans   []pointPlan
	results [][]PointResult
	// pending maps, per output, a basis ID registered during this
	// sweep to the index of the point that owns its simulation.
	pending []map[int]int
	// accept is output c's Store.Match filter.
	accept []func(*core.Basis) bool
}

// prefix is output c's rows 0 to w−1 at point i.
func (s *rowSweep) prefix(c, i int) []float64 {
	lo := (c*s.n + i) * s.w
	return s.prefixes[lo : lo+s.w : lo+s.w]
}

// fingerprint is the first m rows of output c's prefix at point i.
func (s *rowSweep) fingerprint(c, i int) core.Fingerprint {
	return s.prefix(c, i)[:s.m:s.m]
}

func (s *rowSweep) plan(c, i int) *pointPlan { return &s.plans[c*s.n+i] }

// sweepRows is the phased sweep. See the file comment for the phase
// structure and DESIGN.md for the determinism argument.
func sweepRows(engines []*Engine, f PointEval, points []param.Point) ([][]PointResult, SweepStats, error) {
	lead := engines[0]
	k, n, m := len(engines), len(points), lead.opts.FingerprintLen
	width := m
	for _, e := range engines {
		width = max(width, m+e.validationRounds())
	}
	// At least one worker, so an empty job still has a scratch to pin.
	workers := max(1, min(lead.opts.Workers, n))
	s := &rowSweep{
		engines: engines, f: f, points: points, k: k, n: n, m: m, w: width,
		plans:   make([]pointPlan, k*n),
		results: make([][]PointResult, k),
		pending: make([]map[int]int, k),
		accept:  make([]func(*core.Basis) bool, k),
	}
	for c := range engines {
		s.results[c] = make([]PointResult, n)
		pending := make(map[int]int)
		s.pending[c] = pending
		// Accept this sweep's own pending bases (phase C fills them
		// before C2 reads); skip bases another sweep — one a panicking
		// evaluator abandoned — never completed.
		s.accept[c] = func(b *core.Basis) bool {
			if _, ownPending := pending[b.ID]; ownPending {
				return true
			}
			return payloadReady(b)
		}
	}

	// One scratch per worker id, pinned for all three phases: a
	// worker id never runs two points concurrently, so its buffers
	// are reused point after point without synchronization.
	scratches := make([]*scratch, workers)
	for w := range scratches {
		scratches[w] = lead.scratches.Get()
	}
	defer func() {
		for _, sc := range scratches {
			lead.scratches.Put(sc)
		}
	}()
	scratches[0].prefixes = grow(scratches[0].prefixes, k*n*width)
	s.prefixes = scratches[0].prefixes

	// Phase A: prefixes, embarrassingly parallel; each of a point's w
	// rows fills all k.
	if err := pool.ForWorker(n, workers, func(w, i int) {
		dsts := scratches[w].outputs(k)
		for c := range dsts {
			dsts[c] = s.prefix(c, i)
		}
		lead.fingerprints(f, points[i], dsts, width, scratches[w])
	}); err != nil {
		return nil, SweepStats{}, s.pointError(err)
	}

	// Phase B: one store lookup per point and output, strictly in
	// enumeration order, on the calling goroutine, and no evaluator
	// call. It tallies the call's probe accounting (queries, hits,
	// candidates scanned, registrations) as it decides.
	st := SweepStats{Points: k * n}
	if err := pool.ForWorker(n, 1, func(_, i int) {
		for c := range engines {
			s.decide(c, i, scratches[0], &st)
		}
	}); err != nil {
		return nil, SweepStats{}, s.pointError(err)
	}

	// Phase C1: full simulations for the misses, in parallel. Simulated
	// payloads must be complete before any reuse point maps from them,
	// hence the barrier before C2.
	if err := pool.ForWorker(n, workers, func(w, i int) {
		s.complete(i, scratches[w])
	}); err != nil {
		return nil, SweepStats{}, s.pointError(err)
	}

	// Phase C2: mapped results for the hits.
	if err := pool.ForWorker(n, workers, func(_, i int) {
		s.mapHits(i)
	}); err != nil {
		return nil, SweepStats{}, s.pointError(err)
	}
	for _, results := range s.results {
		for i := range results {
			if results[i].Reused {
				st.Reused++
			}
		}
	}
	st.FullSimulations = st.Points - st.Reused
	return s.results, st, nil
}

// pointError names the point whose evaluation panicked.
func (s *rowSweep) pointError(err error) error {
	var perr *pool.PanicError
	if errors.As(err, &perr) {
		return fmt.Errorf("point %s: %w", s.points[perr.Index].Key(), err)
	}
	return err
}

// decide is phase B for output c at point i: one store lookup, then
// reuse the match or register the point as a pending basis — the
// decision an EvaluatePoint loop on output c's engine would make.
func (s *rowSweep) decide(c, i int, sc *scratch, st *SweepStats) {
	e := s.engines[c]
	plan := s.plan(c, i)
	fp := s.fingerprint(c, i)
	if e.opts.Reuse {
		basis, mapping, ok, scanned := e.store.Match(fp, s.accept[c], &sc.probe)
		st.Store.Queries++
		st.Store.CandidatesScanned += scanned
		if ok {
			st.Store.Hits++
			owner, ownPending := s.pending[c][basis.ID]
			valid := true
			if v := e.validationRounds(); v > 0 {
				// A basis registered earlier in this sweep is not
				// simulated yet, but its owner's prefix holds the rows
				// the EvaluatePoint loop would have retained for it by
				// point i.
				var samples []float64
				if ownPending {
					samples = s.prefix(c, owner)
				} else {
					samples = basis.Payload.(*BasisPayload).Samples
				}
				valid = e.validateMatch(mapping, samples, s.prefix(c, i), v)
			}
			if valid {
				plan.basis = basis
				plan.mapping = mapping
				return
			}
		}
	}
	plan.simulate = true
	if e.opts.Reuse {
		payload := &BasisPayload{}
		payload.markPending()
		if basis, err := e.store.Add(fp, s.points[i].Key(), payload); err == nil {
			plan.basis = basis
			s.pending[c][basis.ID] = i
			st.Store.Bases++
		}
	}
}

// complete runs point i's full simulation — its remaining n−w rows,
// once — for every output that missed there, fills the bases their
// plans registered, and records their results.
func (s *rowSweep) complete(i int, sc *scratch) {
	dsts := sc.outputs(s.k)
	need := false
	for c, e := range s.engines {
		if s.plan(c, i).simulate {
			dsts[c] = e.sampleVector(c, sc)
			copy(dsts[c], s.prefix(c, i))
			need = true
		}
	}
	if !need {
		return
	}
	p := s.points[i]
	s.engines[0].simulateRows(s.f, p, dsts, s.w, sc)
	for c, e := range s.engines {
		if dsts[c] == nil {
			continue
		}
		plan := s.plan(c, i)
		res := e.summarize(p, dsts[c], sc)
		if plan.basis != nil {
			payload := plan.basis.Payload.(*BasisPayload)
			payload.Summary = res.Summary
			if e.opts.KeepSamples {
				payload.Samples = dsts[c]
			}
			payload.complete()
			res.BasisID = plan.basis.ID
		}
		s.results[c][i] = res
	}
}

// mapHits is phase C2 at point i: mapped results for every output
// that hit there. Every basis reused by this sweep was either ready
// at phase B or completed by this sweep before the C1→C2 barrier.
func (s *rowSweep) mapHits(i int) {
	for c, e := range s.engines {
		if plan := s.plan(c, i); !plan.simulate {
			s.results[c][i] = e.mapBasis(plan.basis, plan.mapping, s.points[i])
		}
	}
}
