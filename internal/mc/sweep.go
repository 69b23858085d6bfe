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
//	A. fingerprints AND speculative store matches for every point, in
//	   parallel — each worker runs the full Store.Match probe
//	   (signatures, candidate scan, mapping discovery) and records what
//	   it observed in a core.MatchView;
//	B. a serial COMMIT loop in enumeration order: a point whose
//	   probed shards are at their speculation epoch adopts the
//	   speculative outcome in O(1); a point whose shard gained a
//	   basis mid-sweep replays only the appended candidates, which
//	   this loop itself registered and tracks per signature (it is
//	   the sweep's only store writer);
//	C. full simulations for the miss points in parallel, then mapped
//	   results for the hit points — each deterministic given phase B.
//
// The reference semantics is a loop of EvaluatePoint calls in
// enumeration order on the same engine: the commit loop reaches
// exactly that loop's decisions, and the sweep's statistics are the
// sum of that loop's per-call statistics. The per-point
// match cost rides in phase A, so the serial section shrinks to epoch
// loads plus the occasional delta replay. The exception is match
// validation (ValidationSamples with KeepSamples — off by default):
// its paired draws and inline basis completions still run inside
// phase B, so validation-enabled sweeps trade scaling for the guard.
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

// pointPlan is one point's record through the phases: the speculative
// match from phase A, and phase B's committed decision.
type pointPlan struct {
	// view records what the speculative match observed (probed
	// signatures, shard epochs, per-group scan counts); the commit
	// loop validates the speculation against it.
	view core.MatchView
	// basis and mapping hold phase A's speculative match (nil when it
	// missed) until the commit loop replaces them with its decision:
	// the matched basis and its mapping (reuse), or the newly
	// registered basis (simulate, with reuse enabled; nil otherwise).
	basis   *core.Basis
	mapping core.Mapping
	// simulate marks a miss: the point runs a full simulation in
	// phase C1 — unless done, set when the validation path already
	// simulated it inline in phase B.
	simulate, done bool
}

// ownAdds tracks the bases the commit loop registered during this
// sweep, in registration order, grouped the way the index files them.
// Since the commit loop is the sweep's only store writer, these are
// exactly the candidates appended to any probe bucket after phase A's
// speculations — the delta a stale speculation must replay.
type ownAdds struct {
	// bySig groups registrations by insert signature (sharded stores):
	// the tail of probe bucket sig is bySig[sig], in insertion order.
	bySig map[uint64][]*core.Basis
	// all is the registration list for unsharded stores, whose single
	// probe group sees every insertion.
	all []*core.Basis
}

// add records a registration under the signature the store filed it.
func (o *ownAdds) add(store *core.Store, fp core.Fingerprint, b *core.Basis) {
	if sig, sharded := store.InsertSignature(fp); sharded {
		if o.bySig == nil {
			o.bySig = make(map[uint64][]*core.Basis)
		}
		o.bySig[sig] = append(o.bySig[sig], b)
		return
	}
	o.all = append(o.all, b)
}

// tail returns the registrations appended to probe group j of the
// view since speculation.
func (o *ownAdds) tail(store *core.Store, v *core.MatchView, j int) []*core.Basis {
	if store.Sharded() {
		if o.bySig == nil {
			return nil
		}
		return o.bySig[v.Sig(j)]
	}
	return o.all
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

	// Phase A: fingerprints and speculative matches, embarrassingly
	// parallel. All n fingerprints share one backing array — one
	// allocation instead of n (they outlive the phases: misses donate
	// theirs to the store, which clones, and C1 and C2 reread them).
	// The speculative match runs the full probe — quantization,
	// hashing, candidate scan, mapping discovery — that phase B would
	// otherwise serialize; its outcome and the store state it saw land
	// in the point's plan for the commit loop to validate.
	m := e.seeds.Len()
	backing := make([]float64, n*m)
	fingerprint := func(i int) core.Fingerprint { return backing[i*m : (i+1)*m : (i+1)*m] }
	reuse := e.opts.Reuse
	if err := pool.ForWorker(ctx, n, workers, func(w, i int) {
		sc := scratches[w]
		fp := fingerprint(i)
		e.fingerprintFill(f, points[i], fp, sc)
		if reuse {
			plans[i].basis, plans[i].mapping, _ =
				e.store.Match(fp, payloadReady, &sc.probe, &plans[i].view)
		}
	}); err != nil {
		return nil, SweepStats{}, err
	}

	// Phase B: the serial commit loop, strictly in enumeration order.
	// pending maps a basis ID registered during this sweep to the
	// index of the point that owns its simulation; own tracks this
	// sweep's registrations per probe bucket for delta replays. The
	// loop tallies the call's probe accounting (queries, hits,
	// candidates scanned, registrations) as it decides.
	pending := make(map[int]int)
	validating := e.opts.ValidationSamples > 0 && e.opts.KeepSamples
	sc0 := scratches[0]
	var own ownAdds
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
			basis, mapping, ok, scanned := e.commitMatch(fingerprint(i), &plans[i], &own, accept, sc0)
			st.Store.Queries++
			st.Store.CandidatesScanned += int(scanned)
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
		plans[i].basis, plans[i].mapping, plans[i].simulate = nil, nil, true
		if reuse {
			payload := &BasisPayload{}
			payload.markPending()
			if basis, err := e.store.Add(fingerprint(i), points[i].Key(), payload); err == nil {
				plans[i].basis = basis
				pending[basis.ID] = i
				own.add(e.store, fingerprint(i), basis)
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

// commitMatch replays point i's speculative match against the store
// as of this commit step and returns exactly the (basis, mapping, ok)
// a Store.Match here would return, plus the number of
// mapping-discovery attempts that match would scan. The cases,
// cheapest first:
//
//   - the probed shards are at their speculation epochs (ViewCurrent):
//     no candidate list changed, the speculation IS the commit-time
//     decision — O(1), no locks, no index access;
//   - a probed shard changed: the only in-sweep writer is this loop,
//     so the appended candidates are in own; replay them per probe
//     group, in group order — a speculative hit in group j yields to
//     a delta hit in any earlier group (those candidates precede it
//     in scan order) but beats anything appended to group j or later
//     (appends land after the hit position);
//   - the view overflowed (an exotic index with more probe signatures
//     than the view tracks): re-match from scratch.
//
// Own registrations always pass the accept filter (they are this
// sweep's pending bases, or were completed inline by validation), so
// the replay skips the accept call for them.
func (e *Engine) commitMatch(fp core.Fingerprint, plan *pointPlan, own *ownAdds, accept func(*core.Basis) bool, sc *scratch) (basis *core.Basis, mapping core.Mapping, ok bool, scanned int64) {
	v := &plan.view
	if v.Overflow() {
		var fresh core.MatchView
		basis, mapping, ok = e.store.Match(fp, accept, &sc.probe, &fresh)
		return basis, mapping, ok, fresh.ScannedTotal()
	}
	if v.Static() || e.store.ViewCurrent(v) {
		if v.HitProbe() >= 0 {
			return plan.basis, plan.mapping, true, v.ScannedTotal()
		}
		return nil, nil, false, v.ScannedTotal()
	}
	class, tol := e.store.Class(), e.store.Tolerance()
	for j := 0; j < v.Probes(); j++ {
		// The speculation's scan of group j is a prefix of the
		// commit-time scan: its failures stay failures (fingerprints
		// are immutable and pre-sweep payload readiness is stable
		// within a sweep), and a speculative hit here ends the scan
		// exactly where the commit-time one would.
		scanned += int64(v.ScannedIn(j))
		if v.HitProbe() == j {
			return plan.basis, plan.mapping, true, scanned
		}
		for _, b := range own.tail(e.store, v, j) {
			scanned++
			if m, found := class.Find(b.Fingerprint, fp, tol); found {
				return b, m, true, scanned
			}
		}
	}
	return nil, nil, false, scanned
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
