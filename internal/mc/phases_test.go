package mc

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
)

// Tests for the phased sweep beyond determinism (which
// TestSweepParallelDeterminism pins): cancellation in every phase
// leaves the engine and store reusable, the phases add no per-point
// steady-state allocations, and small full simulations skip the
// goroutine fan-out.

// cancelAfterEval wraps an evaluator and cancels a context on the
// k-th model evaluation, steering the cancellation into a chosen
// sweep phase by choosing k: phase A's prefixes are evaluations
// n·(m+v) and earlier (v validation rounds, 0 without validation),
// phase C1's full simulations follow, and phase B evaluates nothing.
type cancelAfterEval struct {
	inner  PointEval
	at     int64
	count  atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAfterEval) EvalPoint(p param.Point, r *rng.Rand) float64 {
	if c.count.Add(1) == c.at {
		c.cancel()
	}
	return c.inner.EvalPoint(p, r)
}

// countEvals runs one full sweep with a counting wrapper and reports
// the total number of model evaluations it performs.
func countEvals(t *testing.T, opts Options, space *param.Space) int64 {
	t.Helper()
	eng := MustNew(opts)
	ce := &cancelAfterEval{inner: MustBindBox(blackbox.NewDemand(), "current_week", "feature_release"), at: -1, cancel: func() {}}
	if _, _, err := eng.Sweep(ce, space); err != nil {
		t.Fatal(err)
	}
	return ce.count.Load()
}

func TestSweepPhaseCancellation(t *testing.T) {
	space := sweepSpace(t)
	points := int64(space.Size())
	const m, v = 10, 16

	base := sweepOptions(4)
	validating := base
	validating.KeepSamples = true
	validating.ValidationSamples = v
	totalPlain := countEvals(t, base, space)

	for _, tc := range []struct {
		name string
		opts Options
		// at is the evaluation count on which the context is
		// cancelled, placing the cancellation inside a specific phase.
		at int64
	}{
		// Mid-fingerprinting: half the points are fingerprinted.
		{"phaseA", base, points * m / 2},
		// With validation active each point's prefix is m+v rows. Were
		// the points drawn one after another, this trigger would land
		// halfway through the middle point's validation rows; on four
		// workers it lands among the prefixes all the same.
		{"phaseA/validation", validating, points/2*(m+v) + m + v/2},
		// The last prefix row: cancellation lands on the A→B
		// boundary, observed by A's pool exit or by the serial match
		// loop of phase B, which itself evaluates nothing.
		{"phaseB", validating, points * (m + v)},
		// Without validation, evaluations after the fingerprints are
		// phase C1's full simulations.
		{"phaseC1", base, points*m + 5},
		// The very last evaluation of the sweep: cancellation lands on
		// the C1→C2 boundary, observed by C1's pool exit or C2's.
		{"phaseC2boundary", base, totalPlain},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := MustNew(tc.opts)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ce := &cancelAfterEval{
				inner:  MustBindBox(blackbox.NewDemand(), "current_week", "feature_release"),
				at:     tc.at,
				cancel: cancel,
			}
			if _, _, err := eng.SweepContext(ctx, ce, space); err != context.Canceled {
				t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
			}
			if ce.count.Load() < tc.at {
				t.Fatalf("sweep stopped after %d evaluations, before the trigger at %d — cancellation did not land in the intended phase",
					ce.count.Load(), tc.at)
			}

			// The engine and store must remain fully usable: a cancelled
			// sweep may leave pending bases behind, but they are benign
			// (never reused, never shadowing their family). The recovery
			// sweep must complete with every point answered and reuse
			// working.
			ce.at = -1 // disarm
			res, st, err := eng.Sweep(ce, space)
			if err != nil {
				t.Fatalf("recovery sweep failed: %v", err)
			}
			if len(res) != space.Size() {
				t.Fatalf("recovery sweep returned %d results, want %d", len(res), space.Size())
			}
			for i, r := range res {
				if r.Point == nil {
					t.Fatalf("recovery sweep left point %d unanswered", i)
				}
			}
			if st.Reused == 0 {
				t.Fatal("recovery sweep reused nothing")
			}
		})
	}
}

// TestSweepReuseSteadyStateAllocs pins the sweep's allocation budget:
// on a warmed store, its per-point allocations must not exceed an
// EvaluatePoint loop's, at one worker or several, with validation off
// and on — the phases' plans, probe scratch, pending-basis
// bookkeeping and pooled prefix buffer cost no per-point heap.
func TestSweepReuseSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector (sync.Pool drops puts)")
	}
	space := sweepSpace(t)
	points := space.Points()
	ev := MustBindBox(blackbox.NewDemand(), "current_week", "feature_release")

	perPoint := func(workers int, validate bool, run func(*Engine)) float64 {
		opts := sweepOptions(workers)
		opts.Index = IndexNormalization
		if validate {
			opts.KeepSamples = true
			opts.ValidationSamples = 16
		}
		eng := MustNew(opts)
		for i := 0; i < 3; i++ { // warm store, scratch pool, worker slots
			run(eng)
		}
		return testing.AllocsPerRun(10, func() { run(eng) }) / float64(len(points))
	}
	loop := func(eng *Engine) { evaluateLoop(eng, ev, points) }
	sweep := func(eng *Engine) {
		if _, _, err := eng.SweepBatch(ev, points); err != nil {
			t.Fatal(err)
		}
	}

	// The EvaluatePoint loop allocates ~1 per reused point (the boxed
	// mapping). The sweep boxes the same mapping in phase B; everything
	// else it adds — plans, the prefix backing array, the pending map —
	// must amortize to O(1) per sweep, leaving headroom only for fixed
	// per-sweep and per-goroutine bookkeeping.
	for _, validate := range []bool{false, true} {
		ref := perPoint(1, validate, loop)
		for _, workers := range []int{1, 4} {
			if got := perPoint(workers, validate, sweep); got > ref+0.5 {
				t.Errorf("validate=%v workers=%d sweep allocates %.2f/point on a warmed store vs %.2f for the EvaluatePoint loop; the phases must not add per-point allocations", validate, workers, got, ref)
			}
		}
	}
}

// blockLenEval is a block evaluator that records the lengths of the
// seed blocks it is handed. Block boundaries restart at every chunk
// of a fanned-out full simulation, so the recorded lengths reveal how
// many goroutines drew the samples.
type blockLenEval struct {
	mu   sync.Mutex
	lens map[int]bool
}

func (b *blockLenEval) EvalPoint(_ param.Point, r *rng.Rand) float64 { return r.Uniform(0, 1) }

func (b *blockLenEval) BindPoint(_ param.Point, buf []float64) []float64 { return buf[:0] }

func (b *blockLenEval) EvalBlockBound(_ []float64, out []float64, seeds []uint64) {
	b.mu.Lock()
	b.lens[len(seeds)] = true
	b.mu.Unlock()
	var r rng.Rand
	for i, s := range seeds {
		r.Seed(s)
		out[i] = r.Uniform(0, 1)
	}
}

// TestOneWideSweepFansOutSamples pins the one behavior a sweep whose
// pool is one point wide keeps from a lone EvaluatePoint: with
// Workers > 1 the point's full simulation spreads its samples over
// goroutines. With n−m = 1024 post-fingerprint samples and 2 workers
// the samples split into two chunks of 512, each drawn in blocks of
// 300 — so a 212-sample block appears only when the samples fan out
// (one goroutine draws 300, 300, 300, 124).
func TestOneWideSweepFansOutSamples(t *testing.T) {
	p := param.Point{"week": 1}
	for _, tc := range []struct {
		workers int
		fanOut  bool
	}{{1, false}, {2, true}} {
		eng := mustNewBlockSize(Options{
			Samples: 1034, FingerprintLen: 10,
			MasterSeed: 0x5161, Workers: tc.workers,
		}, 300)
		ev := &blockLenEval{lens: map[int]bool{}}
		res, _, err := eng.SweepBatch(ev, []param.Point{p})
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.lens[212]; got != tc.fanOut {
			t.Errorf("workers=%d: samples fanned out = %v, want %v (block lengths %v)", tc.workers, got, tc.fanOut, ev.lens)
		}
		if want, _ := eng.EvaluatePoint(ev, p); !reflect.DeepEqual(res[0].Summary, want.Summary) {
			t.Errorf("workers=%d: sweep summary %+v differs from EvaluatePoint's %+v", tc.workers, res[0].Summary, want.Summary)
		}
	}
}

// TestFullSimWorkersClamp pins the fan-out threshold arithmetic.
func TestFullSimWorkersClamp(t *testing.T) {
	for _, tc := range []struct {
		workers, rest, want int
	}{
		{1, 10000, 1},                     // sequential stays sequential
		{4, 990, 1},                       // paper-scale n=1000: too small to fan out
		{4, 2*MinSamplesPerWorker - 1, 1}, // below two full worker shares
		{4, 2 * MinSamplesPerWorker, 2},
		{4, 4086, 4}, // n=4096: every worker gets ≥512
		{8, 4086, 7}, // clamped to rest/MinSamplesPerWorker
	} {
		if got := fullSimWorkers(tc.workers, tc.rest); got != tc.want {
			t.Errorf("fullSimWorkers(%d, %d) = %d, want %d", tc.workers, tc.rest, got, tc.want)
		}
	}
	if got := FullSimFanout(4, 1000, 10); got != 1 {
		t.Errorf("FullSimFanout(4, 1000, 10) = %d, want 1 (the cell that regressed)", got)
	}
	if got := FullSimFanout(4, 4096, 10); got != 4 {
		t.Errorf("FullSimFanout(4, 4096, 10) = %d, want 4", got)
	}
}

// TestFullSimulationSmallStaysSequential pins the behavior behind the
// clamp: at paper scale (n=1000) a Workers=4 EvaluatePoint must take
// the sequential path — observable as the zero-allocation steady
// state, which goroutine fan-out (closure + stack bookkeeping) would
// break.
func TestFullSimulationSmallStaysSequential(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector (sync.Pool drops puts)")
	}
	e := MustNew(Options{
		Samples: 1000, FingerprintLen: 10, MasterSeed: 0x5161,
		Reuse: false, Workers: 4,
	})
	ev := MustBindBox(blackbox.NewDemand(), "week", "feature")
	p := param.Point{"week": 30, "feature": 52}
	e.EvaluatePoint(ev, p) // warm the pool
	allocs := testing.AllocsPerRun(20, func() {
		e.EvaluatePoint(ev, p)
	})
	if allocs > 1 {
		t.Errorf("n=1000 Workers=4 EvaluatePoint allocates %.1f per point (budget 1): small simulation did not skip goroutine fan-out", allocs)
	}
}
