package mc

import (
	"errors"
	"fmt"

	"jigsaw/internal/core"
	"jigsaw/internal/pool"
)

// This file implements the sweep: the evaluation of a parameter space
// (or an explicit batch of value rows) on the engine's worker pool,
// with results bit-identical for every worker count. There is one sweep
// implementation, over k outputs of one evaluator: SweepRows sweeps
// the k outputs of a PointEval, each against its own basis store, and
// Sweep and SweepBatch are its k=1 case. The pool spreads points,
// never a point's samples: each row (one sample, all k outputs) of a
// point draws on the worker that holds the point. At Workers: 1 the
// pool degrades to a plain loop on the calling goroutine
// (pool.ForWorker) and the phases below run back to back.
//
// A naive parallel sweep would race on the basis store: whichever
// point finishes first registers the basis, and every other mappable
// point's result depends on that timing. Instead the sweep runs in
// three phases (DESIGN.md, "Concurrency model" and "Deterministic
// sweep"), each an engine method on one point that EvaluatePoint
// runs too, back to back on its one point:
//
//	A. drawPrefixes: every point's prefix, in parallel — no store
//	   access: its rows 0 to w−1, whose first m are the k fingerprints
//	   and the rest the match-validation targets (w = m without
//	   validation);
//	B. decide: a serial loop in enumeration order, point-major: for
//	   each point and each output, one Store.Match against that
//	   output's store (plus match validation, when enabled), then the
//	   decision — reuse the matched basis, or register the point as a
//	   new basis whose payload stays pending, holding the point's
//	   prefix, until phase C1 fills it. Phase B calls no evaluator;
//	C. complete: full simulations in parallel — a point's remaining
//	   n−w rows once, for every output that missed there — then
//	   mapHits: mapped results for the hits, each deterministic given
//	   phase B.
//
// The reference semantics is, per output, a loop of EvaluatePoint
// calls in enumeration order on an engine of the same options sweeping
// that output alone: each store sees exactly that loop's Match/Add
// sequence (stores are per output, and phase B visits the points of
// every output in order), and the sweep's statistics are the sum of
// those loops' per-call statistics. Sample j of output c is output c
// of row j, so one row serves every output. Phase B costs one probe
// per point and output, small against the model evaluations of phases
// A and C. Match validation (ValidationSamples with Reuse — off by
// default) adds only comparisons to it: an output's v validation
// targets are the point's rows m to m+v−1, which depend on the point
// and the seeds alone, so phase A draws them with the fingerprint.
// They are compared against the rows the matched basis' payload holds
// in its Samples: the retained samples of a complete basis (a
// validating engine retains them whatever KeepSamples says), or the
// owner's prefix of a basis this sweep registered and has not
// simulated yet, which holds the same rows. The sweep's match filter
// admits its own pending bases, by the owner token their payloads
// carry, and skips every other call's. A miss keeps its whole prefix
// as the first w of its samples, so no row is drawn twice.
//
// Every phase runs on pool.ForWorker so each worker id owns one
// scratch for the whole sweep: prefixes fill one backing array held
// by worker 0's scratch, probes reuse candidate buffers, and simulations
// reuse the binding and one sample buffer per output — the steady-state
// allocation per point is O(1) (see scratch.go). A panicking
// evaluator stops the sweep with an error naming its point.

// Sweep evaluates every point of f's space in enumeration order and
// returns per-point results plus this call's reuse statistics. This
// is Jigsaw's batch-mode inner loop (Fig. 3): Parameter Enumerator →
// PDB → basis reuse. The points are spread over the engine's worker pool
// (Options.Workers); results and statistics are bit-identical for
// every worker count.
func (e *Engine) Sweep(f PointEval) ([]PointResult, SweepStats, error) {
	space := f.Space()
	if space == nil {
		return nil, SweepStats{}, errors.New("mc: evaluator has no parameter space")
	}
	points := make([][]float64, space.Size())
	for i := range points {
		points[i] = space.Values(i, nil)
	}
	return e.SweepBatch(f, points)
}

// SweepBatch evaluates an explicit list of points, value rows of the
// space f was built against, through the engine's worker pool, in
// slice order, with the same determinism guarantee as Sweep. It is the
// building block for callers that compose points themselves: the
// optimizer's (group × sweep) product, a graph statement's domain
// walk. A row too short for f comes back as an error naming it.
func (e *Engine) SweepBatch(f PointEval, points [][]float64) ([]PointResult, SweepStats, error) {
	results, st, err := e.SweepRows(f, 1, points)
	if err != nil {
		return nil, SweepStats{}, err
	}
	return results[0], st, nil
}

// SweepRows sweeps the k outputs of f over points, in slice order,
// output c against its own basis store. Each sample is drawn once for
// all k outputs. results[c] holds output c's per-point results, and
// they and the returned statistics (summed over the outputs) are
// bit-identical to k separate SweepBatch calls on engines of the same
// options, each sweeping one output of f alone. See the file comment
// for the phase structure and DESIGN.md for the determinism argument.
func (e *Engine) SweepRows(f PointEval, k int, points [][]float64) ([][]PointResult, SweepStats, error) {
	if k < 1 {
		return nil, SweepStats{}, fmt.Errorf("mc: SweepRows of %d outputs", k)
	}
	n, w := len(points), e.prefixLen()
	// At least one worker, so an empty job still has a scratch to pin.
	workers := max(1, min(e.opts.Workers, n))
	stores, owner := e.outputStores(k), e.sweeps.Add(1)
	// accept admits ready bases and this sweep's own pending ones
	// (phase C1 fills them before C2 maps from them), and skips bases
	// another call has not completed — or, if a panicking evaluator
	// abandoned it, never will.
	accept := func(b *core.Basis) bool {
		p, ok := b.Payload.(*BasisPayload)
		return ok && (p.owner == owner || p.Ready())
	}
	plans := make([]pointPlan, n*k)
	results := make([][]PointResult, k)
	for c := range results {
		results[c] = make([]PointResult, n)
	}

	// One scratch per worker id, pinned for all three phases: a
	// worker id never runs two points concurrently, so its buffers
	// are reused point after point without synchronization.
	scratches := make([]*scratch, workers)
	for w := range scratches {
		scratches[w] = e.scratches.Get()
	}
	defer func() {
		for _, sc := range scratches {
			e.scratches.Put(sc)
		}
	}()
	// Plans and prefixes are point-major: point i's k plans and k
	// prefixes are contiguous. Misses donate their fingerprints to the
	// store, which clones them, and copy their prefixes into their
	// sample vectors, so nothing outlives the sweep.
	scratches[0].prefixes = grow(scratches[0].prefixes, n*k*w)
	prefixes := scratches[0].prefixes
	point := func(i int) ([]pointPlan, []float64) {
		return plans[i*k : (i+1)*k], prefixes[i*k*w : (i+1)*k*w]
	}
	// fail names the point whose evaluation panicked by its batch
	// position and values.
	fail := func(err error) ([][]PointResult, SweepStats, error) {
		var perr *pool.PanicError
		if errors.As(err, &perr) {
			err = fmt.Errorf("point %d %v: %w", perr.Index, points[perr.Index], err)
		}
		return nil, SweepStats{}, err
	}

	// Phase A: prefixes, embarrassingly parallel; each of a point's w
	// rows fills all k.
	if err := pool.ForWorker(n, workers, func(wk, i int) {
		_, pre := point(i)
		e.drawPrefixes(f, points[i], pre, k, scratches[wk])
	}); err != nil {
		return fail(err)
	}

	// Phase B: one store lookup per point and output, strictly in
	// enumeration order, on the calling goroutine, and no evaluator
	// call. It tallies the call's accounting (queries, hits, candidates
	// scanned, reuses, registrations) as it decides.
	st := SweepStats{Points: k * n}
	if err := pool.ForWorker(n, 1, func(_, i int) {
		pl, pre := point(i)
		e.decide(stores, owner, accept, pl, pre, scratches[0], &st)
	}); err != nil {
		return fail(err)
	}

	// Phase C1: full simulations for the misses, in parallel. Simulated
	// payloads must be complete before any reuse point maps from them,
	// hence the barrier before C2.
	if err := pool.ForWorker(n, workers, func(wk, i int) {
		pl, pre := point(i)
		e.complete(f, points[i], pl, pre, results, i, scratches[wk])
	}); err != nil {
		return fail(err)
	}

	// Phase C2: mapped results for the hits.
	if err := pool.ForWorker(n, workers, func(_, i int) {
		pl, _ := point(i)
		e.mapHits(pl, results, i)
	}); err != nil {
		return fail(err)
	}
	st.FullSimulations = st.Points - st.Reused
	return results, st, nil
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
// basis pending until complete fills it. The pending payload is marked
// with owner and keeps the prefix as its Samples, so a later point of
// the same call validates against it. decide calls no evaluator and
// tallies the decisions into st.
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
		payload := &BasisPayload{Samples: prefix, owner: owner}
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

// complete is phase C1 at point i: it draws the point's remaining
// rows w to n−1, once, for every output that missed there, fills the
// bases their plans registered and writes their results to
// results[c][i]. A filled payload keeps the full sample vector under
// KeepSamples and none otherwise.
func (e *Engine) complete(f PointEval, vals []float64, plans []pointPlan, prefixes []float64, results [][]PointResult, i int, sc *scratch) {
	w := e.prefixLen()
	dsts := sc.outputs(len(plans))
	need := false
	for c := range plans {
		if plans[c].simulate {
			dsts[c] = e.sampleVector(c, sc)
			copy(dsts[c], prefixes[c*w:(c+1)*w])
			need = true
		}
	}
	if !need {
		return
	}
	e.drawRows(f, vals, dsts, w, e.opts.Samples, sc)
	for c, samples := range dsts {
		if samples == nil {
			continue
		}
		res := e.summarize(samples, sc)
		if b := plans[c].basis; b != nil {
			payload := b.Payload.(*BasisPayload)
			payload.Summary, payload.Samples = res.Summary, nil
			if e.opts.KeepSamples {
				payload.Samples = samples
			}
			payload.complete()
			res.BasisID = b.ID
		}
		results[c][i] = res
	}
}

// mapHits is phase C2 at point i: the mapped result of every output
// that hit there, pushing the mapping through the basis' summary. A
// basis reused by a sweep was either ready at its decision or
// completed by the same sweep before mapHits runs.
func (e *Engine) mapHits(plans []pointPlan, results [][]PointResult, i int) {
	for c, plan := range plans {
		if !plan.simulate {
			results[c][i] = PointResult{
				Summary: plan.basis.Payload.(*BasisPayload).Summary.MapAffine(plan.mapping.Alpha, plan.mapping.Beta),
				Reused:  true,
				BasisID: plan.basis.ID,
				Mapping: plan.mapping,
			}
		}
	}
}
