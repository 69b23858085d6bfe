package mc

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
)

// Tests of the streamed sweep beyond determinism (which
// TestSweepParallelDeterminism pins): the order of its callbacks, a
// decision against a basis whose owner is still simulating, and its
// allocations per call.

// TestSweepStreamCallbackOrder checks that SweepStream asks for every
// row and emits every point exactly once, each in enumeration order,
// and never emits a point before its row, over point counts below,
// at and past the window, none of them a whole number of windows
// after the first.
func TestSweepStreamCallbackOrder(t *testing.T) {
	ev := bindNames(blackbox.NewDemand(), "current_week", "feature_release")
	for _, n := range []int{1, 5, window, 3*window + 5} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				var rows, emits int
				st, err := MustNew(sweepOptions(workers)).SweepStream(ev, 1, n,
					func(i int, dst []float64) []float64 {
						if i != rows {
							t.Fatalf("row %d asked for, want %d", i, rows)
						}
						rows++
						return append(dst, float64(i%53), 12)
					},
					func(i int, res []PointResult) {
						if i != emits || i >= rows {
							t.Fatalf("point %d emitted after %d emits and %d rows", i, emits, rows)
						}
						if len(res) != 1 || res[0].Summary.N != 400 {
							t.Fatalf("point %d emitted %+v", i, res)
						}
						emits++
					})
				if err != nil {
					t.Fatal(err)
				}
				if rows != n || emits != n || st.Points != n {
					t.Fatalf("%d rows, %d emits, %d points, want %d", rows, emits, st.Points, n)
				}
			})
		}
	}
}

// TestSweepStreamEmitPanicStopsWorkers checks that a panic in the
// caller's emit reaches the caller, as any panic on its goroutine
// does, and that the sweep's workers stop with it, even when they
// have finished more tasks than they can report to a caller that no
// longer reads them: the emit pauses before panicking, so that the
// workers draw and simulate the window ahead.
func TestSweepStreamEmitPanicStopsWorkers(t *testing.T) {
	ev := bindNames(blackbox.NewDemand(), "current_week", "feature_release")
	opts := sweepOptions(4)
	opts.Reuse = false // every point is simulated: a task per point
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts.Workers = workers
			baseline := runtime.NumGoroutine()
			func() {
				defer func() {
					if r := recover(); r != "emit failure" {
						t.Fatalf("recovered %v, want the emit's panic", r)
					}
				}()
				MustNew(opts).SweepStream(ev, 1, 10*window,
					func(i int, dst []float64) []float64 { return append(dst, float64(i%53), 12) },
					func(int, []PointResult) {
						time.Sleep(100 * time.Millisecond)
						panic("emit failure")
					})
			}()
			// An exiting worker may still count for a moment after the
			// sweep has waited for it.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Fatalf("%d goroutines after the panic, %d before", n, baseline)
			}
		})
	}
}

// gatedEval holds two points of a validating sweep so that the later
// one is decided while the earlier, its basis' owner, is simulating:
// the owner's first block past the prefix waits until the later
// point's simulation starts, and the later point's prefix waits until
// the owner's simulation has started. Each wait gives up after a
// timeout (the owner may be simulating on the very goroutine that
// decides), and overlapped reports whether both waits ended on their
// signal. A value row is (risk, tag), and the tag names the point.
type gatedEval struct {
	PointEval
	w                  int
	owner, later       float64
	ownerSim, laterSim chan struct{}
	ownerOK, laterOK   atomic.Bool
}

const gateTimeout = 500 * time.Millisecond

func (g *gatedEval) EvalBlockBound(bound []float64, outs [][]float64, master uint64, ids []int, r *rng.Rand) {
	switch tag := bound[1]; {
	case tag == g.owner && ids[0] == g.w:
		close(g.ownerSim)
		g.ownerOK.Store(wait(g.laterSim))
	case tag == g.later && ids[0] == 0:
		g.laterOK.Store(wait(g.ownerSim))
	case tag == g.later && ids[0] == g.w:
		close(g.laterSim)
	}
	g.PointEval.EvalBlockBound(bound, outs, master, ids, r)
}

// wait reports whether signal closed before the gate's timeout.
func wait(signal chan struct{}) bool {
	select {
	case <-signal:
		return true
	case <-time.After(gateTimeout):
		return false
	}
}

func (g *gatedEval) overlapped() bool { return g.ownerOK.Load() && g.laterOK.Load() }

// TestSweepValidatesAgainstSimulatingOwner pins the one hazard of the
// pipelined sweep: phase B validating a match on a pending basis while
// the basis' owner simulates in phase C1. Point 0 (risk 0) registers
// the basis; the zero-risk points after it reuse it, validated on its
// retained prefix; point 40 (risk 0.05, whose fingerprint under seed
// 77 is all zeros too) matches it and is rejected by its validation
// rows while point 0 is simulating. The results and statistics must
// equal the EvaluatePoint loop's, and under -race the owner's
// simulation must not race with the validation's reads. A run in
// which the owner simulated on the deciding goroutine does not
// overlap, so the test retries until one does.
func TestSweepValidatesAgainstSimulatingOwner(t *testing.T) {
	const n, later = 6 * chunk, 5 * chunk
	opts := Options{Samples: 800, MasterSeed: 77, Reuse: true, ValidationSamples: 128}
	inner := funcEval(func(a []float64, r *rng.Rand) float64 {
		if r.Bernoulli(a[0]) {
			return 1
		}
		return 0
	}, "risk", "tag")
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{0, float64(i)}
	}
	points[later][0] = 0.05

	ref := opts
	ref.Workers = 1
	want, wantSt := evaluateLoop(MustNew(ref), inner, points)
	if !want[1].Reused || want[later].Reused || wantSt.Store.Hits != n-1 {
		t.Fatalf("oracle: point 1 reused %v, point %d reused %v, %d hits; want the later point's match rejected",
			want[1].Reused, later, want[later].Reused, wantSt.Store.Hits)
	}
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := opts
			opts.Workers = workers
			for attempt := 1; ; attempt++ {
				ev := &gatedEval{PointEval: inner, w: 10 + 128, owner: 0, later: later,
					ownerSim: make(chan struct{}), laterSim: make(chan struct{})}
				got, st, err := MustNew(opts).SweepBatch(ev, points)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(st, wantSt) {
					t.Fatalf("attempt %d: sweep differs from the EvaluatePoint loop\n%+v\n%+v", attempt, st, wantSt)
				}
				if ev.overlapped() {
					return
				}
				if attempt == 20 {
					t.Fatal("no attempt decided the later point while its basis' owner simulated")
				}
			}
		})
	}
}

// TestSweepStreamAllocs pins the stream's allocations per call: with
// an emit that keeps nothing, a sweep of 4096 points allocates no more
// than one of 256 (plus one, for noise) — the window, tasks and
// workers are per call, never per point — on a warmed store (every
// point reused) and without reuse (every point simulated in scratch),
// at one worker and at four.
func TestSweepStreamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector (sync.Pool drops puts)")
	}
	week, err := param.Range("current_week", 0, 4095, 1)
	if err != nil {
		t.Fatal(err)
	}
	release, err := param.Set("feature_release", 52)
	if err != nil {
		t.Fatal(err)
	}
	space := param.MustSpace(week, release)
	ev := MustBindBox(blackbox.NewDemand(), space, "current_week", "feature_release")
	for _, reuse := range []bool{true, false} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("reuse=%v/workers=%d", reuse, workers), func(t *testing.T) {
				opts := sweepOptions(workers)
				opts.Reuse = reuse
				opts.Index = IndexNormalization
				eng := MustNew(opts)
				perCall := func(n int) float64 {
					sweep := func() {
						if _, err := eng.SweepStream(ev, 1, n, space.Values, func(int, []PointResult) {}); err != nil {
							t.Fatal(err)
						}
					}
					sweep() // register the bases, warm the scratches
					// The median of five one-run counts: a pooled scratch
					// grows its buffers the first time its goroutine draws
					// or simulates, which the scheduler may put off to any
					// call (6 allocations in one run of five, now and
					// then), while a per-call or per-point cost shows in
					// most runs.
					runs := make([]float64, 5)
					for i := range runs {
						runs[i] = testing.AllocsPerRun(1, sweep)
					}
					slices.Sort(runs)
					return runs[len(runs)/2]
				}
				small, large := perCall(256), perCall(4096)
				t.Logf("%.1f allocations per call at 256 points, %.1f at 4096", small, large)
				if large > small+1 {
					t.Errorf("a 4096-point sweep allocates %.1f, a 256-point one %.1f: allocations grow with the point count", large, small)
				}
			})
		}
	}
}
