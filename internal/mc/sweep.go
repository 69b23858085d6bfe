package mc

import (
	"context"
	"errors"

	"jigsaw/internal/core"
	"jigsaw/internal/param"
	"jigsaw/internal/pool"
)

// This file implements the sweep: the evaluation of a parameter space
// (or an explicit batch of points) on the engine's worker pool, with
// results bit-identical for every worker count. There is one sweep
// implementation; at Workers: 1 the pool degrades to a plain loop on
// the calling goroutine (pool.ForWorker) and the phases below run
// back to back.
//
// A naive parallel sweep would race on the basis store: whichever
// point finishes first registers the basis, and every other mappable
// point's result depends on that timing. Instead the sweep runs in
// three phases (DESIGN.md, "Concurrency model"):
//
//	A. fingerprints for every point, in parallel — no store access;
//	B. a serial loop in enumeration order: one Store.Match per point
//	   (plus match validation, when enabled), then the decision —
//	   reuse the matched basis, or register the point as a new basis
//	   whose payload stays pending until phase C1 fills it;
//	C. full simulations for the miss points in parallel, then mapped
//	   results for the hit points — each deterministic given phase B.
//
// The reference semantics is a loop of EvaluatePoint calls in
// enumeration order on the same engine: phase B makes exactly that
// loop's store decisions, and the sweep's statistics are the sum of
// that loop's per-call statistics. Phase B costs one probe per point,
// small against the model evaluations of phases A and C. Match
// validation (ValidationSamples with KeepSamples — off by default)
// also runs inside phase B: its paired draws and inline basis
// completions are serial, so validation-enabled sweeps trade scaling
// for the guard.
//
// Every phase runs on pool.ForWorker so each worker id owns one
// scratch for the whole sweep: fingerprints fill a single bulk
// backing array, probes reuse candidate buffers, and simulations
// reuse sample buffers — the steady-state allocation per point is
// zero on the reuse path (see scratch.go).

// Sweep evaluates every point of the space in enumeration order and
// returns per-point results plus this call's reuse statistics. This
// is Jigsaw's batch-mode inner loop (Fig. 3): Parameter Enumerator →
// PDB → basis reuse. The points are spread over the engine's worker pool
// (Options.Workers); results and statistics are bit-identical for
// every worker count.
func (e *Engine) Sweep(f PointEval, space *param.Space) ([]PointResult, SweepStats, error) {
	return e.SweepContext(context.Background(), f, space)
}

// SweepContext is Sweep with cancellation: it stops early (returning
// ctx.Err()) when the context is cancelled.
func (e *Engine) SweepContext(ctx context.Context, f PointEval, space *param.Space) ([]PointResult, SweepStats, error) {
	if space == nil {
		return nil, SweepStats{}, errors.New("mc: nil parameter space")
	}
	return e.sweep(ctx, f, space.Points())
}

// SweepBatch evaluates an explicit list of parameter points through
// the engine's worker pool, in slice order, with the same determinism
// guarantee as Sweep. It is the building block for callers that
// compose points themselves: the optimizer's (group × sweep) product,
// a graph statement's domain walk, or an interactive prefetch batch.
func (e *Engine) SweepBatch(f PointEval, points []param.Point) ([]PointResult, SweepStats, error) {
	return e.SweepBatchContext(context.Background(), f, points)
}

// SweepBatchContext is SweepBatch with cancellation.
func (e *Engine) SweepBatchContext(ctx context.Context, f PointEval, points []param.Point) ([]PointResult, SweepStats, error) {
	return e.sweep(ctx, f, points)
}

// sweepWorkers clamps the configured pool size to the job size (at
// least one worker, so an empty job still has a scratch to pin).
func (e *Engine) sweepWorkers(points int) int {
	return max(1, min(e.opts.Workers, points))
}

// pointPlan is one point's record through the phases: phase B's
// decision, which phases C1 and C2 carry out.
type pointPlan struct {
	// basis and mapping hold the decision: the matched basis and its
	// mapping (reuse), or the newly registered basis (simulate, with
	// reuse enabled; nil otherwise).
	basis   *core.Basis
	mapping core.Mapping
	// simulate marks a miss: the point runs a full simulation in
	// phase C1 — unless done, set when the validation path already
	// simulated it inline in phase B.
	simulate, done bool
}

// sweep is the phased sweep. See the file comment for the phase
// structure and DESIGN.md for the determinism argument.
func (e *Engine) sweep(ctx context.Context, f PointEval, points []param.Point) ([]PointResult, SweepStats, error) {
	n := len(points)
	workers := e.sweepWorkers(n)
	// simWorkers is the fan-out of each full simulation. A pool wider
	// than one worker is already busy with other points; a pool one
	// wide (Workers: 1, or a one-point batch) leaves the cores to the
	// point's own samples, as a lone EvaluatePoint would.
	simWorkers := 1
	if workers == 1 {
		simWorkers = e.opts.Workers
	}
	results := make([]PointResult, n)
	plans := make([]pointPlan, n)

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

	// Phase A: fingerprints, embarrassingly parallel. All n
	// fingerprints share one backing array — one allocation instead of
	// n (they outlive the phases: misses donate theirs to the store,
	// which clones, and C1 and C2 reread them).
	m := e.seeds.Len()
	backing := make([]float64, n*m)
	fingerprint := func(i int) core.Fingerprint { return backing[i*m : (i+1)*m : (i+1)*m] }
	if err := pool.ForWorker(ctx, n, workers, func(w, i int) {
		e.fingerprintFill(f, points[i], fingerprint(i), scratches[w])
	}); err != nil {
		return nil, SweepStats{}, err
	}

	// Phase B: one store lookup per point, strictly in enumeration
	// order. pending maps a basis ID registered during this sweep to
	// the index of the point that owns its simulation. The loop tallies
	// the call's probe accounting (queries, hits, candidates scanned,
	// registrations) as it decides.
	reuse := e.opts.Reuse
	pending := make(map[int]int)
	validating := e.opts.ValidationSamples > 0 && e.opts.KeepSamples
	sc0 := scratches[0]
	st := SweepStats{Points: n}
	// Accept this sweep's own pending bases (phase C fills them
	// before C2 reads); skip bases another — possibly cancelled —
	// sweep never completed.
	accept := func(b *core.Basis) bool {
		if _, ownPending := pending[b.ID]; ownPending {
			return true
		}
		return payloadReady(b)
	}
	var err error
	for i := 0; i < n; i++ {
		if err = ctx.Err(); err != nil {
			break
		}
		if reuse {
			basis, mapping, ok, scanned := e.store.Match(fingerprint(i), accept, &sc0.probe)
			st.Store.Queries++
			st.Store.CandidatesScanned += scanned
			if ok {
				st.Store.Hits++
				_, ownPending := pending[basis.ID]
				if validating && ownPending {
					// Validation compares against the basis' retained
					// samples; a basis registered earlier in this sweep
					// may not be simulated yet — complete it now, which
					// is exactly the state the EvaluatePoint loop would
					// have reached before evaluating point i.
					owner := pending[basis.ID]
					results[owner] = e.completeSimulation(f, points[owner], fingerprint(owner), &plans[owner], simWorkers, sc0)
					plans[owner].done = true
					delete(pending, basis.ID)
					ownPending = false
				}
				// A basis still pending in this sweep at this line has
				// no retained samples to validate against (with
				// validation active it was completed inline above), and
				// the EvaluatePoint loop trusts such matches as-is.
				valid := ownPending || e.validateMatch(f, points[i], basis, mapping, sc0)
				if valid && e.basisUsable(basis, mapping, ownPending) {
					plans[i].basis = basis
					plans[i].mapping = mapping
					continue
				}
			}
		}
		plans[i].simulate = true
		if reuse {
			payload := &BasisPayload{}
			payload.markPending()
			if basis, err := e.store.Add(fingerprint(i), points[i].Key(), payload); err == nil {
				plans[i].basis = basis
				pending[basis.ID] = i
				st.Store.Bases++
			}
		}
	}
	if err != nil {
		return nil, SweepStats{}, err
	}

	// Phase C1: full simulations for the miss points, in parallel.
	// Simulated payloads must be complete before any reuse point maps
	// from them, hence the barrier before C2.
	if err := pool.ForWorker(ctx, n, workers, func(w, i int) {
		if plans[i].simulate && !plans[i].done {
			results[i] = e.completeSimulation(f, points[i], fingerprint(i), &plans[i], simWorkers, scratches[w])
		}
	}); err != nil {
		return nil, SweepStats{}, err
	}

	// Phase C2: mapped results for the reuse points.
	if err := pool.ForWorker(ctx, n, workers, func(w, i int) {
		if plans[i].simulate {
			return
		}
		// trusted=true: every basis reused by this sweep was either
		// ready at phase B or completed by this sweep before the C1→C2
		// barrier.
		if res, ok := e.mapBasis(plans[i].basis, plans[i].mapping, points[i], true, scratches[w]); ok {
			results[i] = res
			return
		}
		// Unreachable when basisUsable agreed to the reuse; simulate
		// defensively rather than return a zero result.
		results[i], _ = e.fullSimulation(f, points[i], fingerprint(i), simWorkers, scratches[w])
	}); err != nil {
		return nil, SweepStats{}, err
	}
	for i := range results {
		if results[i].Reused {
			st.Reused++
		}
	}
	st.FullSimulations = n - st.Reused
	return results, st, nil
}

// completeSimulation runs a miss point's full simulation over workers
// goroutines, fills the payload of the basis its plan registered, and
// returns the point's result.
func (e *Engine) completeSimulation(f PointEval, p param.Point, fp core.Fingerprint, plan *pointPlan, workers int, sc *scratch) PointResult {
	res, samples := e.fullSimulation(f, p, fp, workers, sc)
	if plan.basis != nil {
		payload := plan.basis.Payload.(*BasisPayload)
		payload.Summary = res.Summary
		if e.opts.KeepSamples {
			payload.Samples = samples
		}
		payload.complete()
		res.BasisID = plan.basis.ID
	}
	return res
}

// basisUsable reports whether mapBasis will be able to derive a result
// from the basis once its payload is complete — the phase-B mirror of
// mapBasis' runtime checks: affine mappings push through the summary,
// anything else needs retained samples. ownPending marks a basis this
// sweep registered itself: its payload is legitimately incomplete
// (phase C1 fills it before C2 reads) and its fields must not be read
// yet. A basis pending in a *different* concurrent sweep is simply
// not usable.
func (e *Engine) basisUsable(basis *core.Basis, mapping core.Mapping, ownPending bool) bool {
	payload, _ := basis.Payload.(*BasisPayload)
	if payload == nil {
		return false
	}
	_, affine := mapping.(core.Affine)
	if ownPending {
		// This sweep owns the simulation; samples will exist iff the
		// engine keeps them.
		return affine || e.opts.KeepSamples
	}
	if !payload.Ready() {
		return false
	}
	if affine {
		return true
	}
	return len(payload.Samples) > 0
}
