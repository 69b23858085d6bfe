package mc

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/param"
	"jigsaw/internal/pool"
	"jigsaw/internal/rng"
)

// Tests for the phased sweep beyond determinism (which
// TestSweepParallelDeterminism pins): a sweep abandoned in any phase
// that draws leaves the engine and store reusable, the phases add no
// per-point steady-state allocations, and a point's samples draw on
// one goroutine.

// panicAtEval wraps an evaluator and panics in the block that draws
// the k-th model evaluation, steering the failure into a chosen sweep
// phase by choosing k: phase A's prefixes are evaluations n·(m+v) and
// earlier (v validation rounds, 0 without validation), and phase C1's
// full simulations follow. Phase B evaluates nothing, so no panic can
// land there.
type panicAtEval struct {
	inner PointEval
	at    int64
	count atomic.Int64
}

func (c *panicAtEval) BindPoint(p param.Point, buf []float64) []float64 {
	return c.inner.BindPoint(p, buf)
}

func (c *panicAtEval) EvalBlockBound(bound []float64, outs [][]float64, master uint64, ids []int, r *rng.Rand) {
	n := int64(len(ids))
	if to := c.count.Add(n); to-n < c.at && c.at <= to {
		panic("model failure")
	}
	c.inner.EvalBlockBound(bound, outs, master, ids, r)
}

// TestSweepPhasePanicLeavesEngineUsable abandons a sweep by a panic in
// phase A (with and without validation) and in phase C1, and then
// requires the same engine to sweep the space completely, with reuse
// working: the pending bases the abandoned sweep registered are never
// reused and never shadow their family.
func TestSweepPhasePanicLeavesEngineUsable(t *testing.T) {
	space := sweepSpace(t)
	points := int64(space.Size())
	const m, v = 10, 16

	base := sweepOptions(4)
	validating := base
	validating.KeepSamples = true
	validating.ValidationSamples = v

	for _, tc := range []struct {
		name string
		opts Options
		// at is the evaluation count on which the evaluator panics,
		// placing the failure inside a specific phase.
		at int64
	}{
		// Mid-fingerprinting: half the points are fingerprinted.
		{"phaseA", base, points * m / 2},
		// With validation active each point's prefix is m+v rows. Were
		// the points drawn one after another, this trigger would land
		// halfway through the middle point's validation rows; on four
		// workers it lands among the prefixes all the same.
		{"phaseA/validation", validating, points/2*(m+v) + m + v/2},
		// Without validation, evaluations after the fingerprints are
		// phase C1's full simulations, whose bases phase B registered
		// as pending.
		{"phaseC1", base, points*m + 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := MustNew(tc.opts)
			pe := &panicAtEval{
				inner: MustBindBox(blackbox.NewDemand(), "current_week", "feature_release"),
				at:    tc.at,
			}
			_, _, err := eng.Sweep(pe, space)
			var perr *pool.PanicError
			if !errors.As(err, &perr) || perr.Value != "model failure" {
				t.Fatalf("abandoned sweep returned %v, want the recovered panic", err)
			}
			if pe.count.Load() < tc.at {
				t.Fatalf("sweep stopped after %d evaluations, before the trigger at %d — the panic did not land in the intended phase",
					pe.count.Load(), tc.at)
			}

			// The engine and store must remain fully usable: an
			// abandoned sweep may leave pending bases behind, but they
			// are benign (never reused, never shadowing their family).
			// The recovery sweep must complete with every point
			// answered and reuse working.
			pe.at = -1 // disarm
			res, st, err := eng.Sweep(pe, space)
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
// id blocks it is handed. Block boundaries restart at every chunk
// of a fanned-out full simulation, so the recorded lengths reveal how
// many goroutines drew the samples.
type blockLenEval struct {
	mu   sync.Mutex
	lens map[int]bool
}

func (b *blockLenEval) BindPoint(_ param.Point, buf []float64) []float64 { return buf[:0] }

func (b *blockLenEval) EvalBlockBound(_ []float64, outs [][]float64, master uint64, ids []int, r *rng.Rand) {
	b.mu.Lock()
	b.lens[len(ids)] = true
	b.mu.Unlock()
	for i, id := range ids {
		r.Seed(rng.SampleSeed(master, id))
		outs[0][i] = r.Uniform(0, 1)
	}
}

// TestOneWideSweepDrawsSamplesOnOneGoroutine pins that a point's
// samples draw on one goroutine whatever Workers says: a one-point
// batch runs its full simulation in one sequence of blocks. With
// n−m = 1024 post-fingerprint samples in blocks of 300, one goroutine
// draws 300, 300, 300, 124; a 212-sample block would appear only if
// the samples were split into two chunks of 512.
func TestOneWideSweepDrawsSamplesOnOneGoroutine(t *testing.T) {
	p := param.Point{"week": 1}
	want := map[int]bool{10: true, 300: true, 124: true}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng := mustNewBlockSize(Options{
				Samples: 1034, FingerprintLen: 10,
				MasterSeed: 0x5161, Workers: workers,
			}, 300)
			ev := &blockLenEval{lens: map[int]bool{}}
			res, _, err := eng.SweepBatch(ev, []param.Point{p})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ev.lens, want) {
				t.Errorf("block lengths %v, want %v (one goroutine, blocks of 300)", ev.lens, want)
			}
			if want, _ := eng.EvaluatePoint(ev, p); !reflect.DeepEqual(res[0].Summary, want.Summary) {
				t.Errorf("sweep summary %+v differs from EvaluatePoint's %+v", res[0].Summary, want.Summary)
			}
		})
	}
}

// TestFullSimulationSmallStaysSequential pins that a lone
// EvaluatePoint at Workers=4 draws its samples on the calling
// goroutine, at paper scale (n=1000) and at n=4096 alike: observable
// as the zero-allocation steady state, which goroutine fan-out
// (closure + stack bookkeeping) would break.
func TestFullSimulationSmallStaysSequential(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector (sync.Pool drops puts)")
	}
	ev := MustBindBox(blackbox.NewDemand(), "week", "feature")
	p := param.Point{"week": 30, "feature": 52}
	for _, samples := range []int{1000, 4096} {
		t.Run(fmt.Sprintf("n=%d", samples), func(t *testing.T) {
			e := MustNew(Options{
				Samples: samples, FingerprintLen: 10, MasterSeed: 0x5161,
				Reuse: false, Workers: 4,
			})
			e.EvaluatePoint(ev, p) // warm the pool
			allocs := testing.AllocsPerRun(20, func() {
				e.EvaluatePoint(ev, p)
			})
			if allocs > 1 {
				t.Errorf("Workers=4 EvaluatePoint allocates %.1f per point (budget 1): its samples did not draw on one goroutine", allocs)
			}
		})
	}
}
