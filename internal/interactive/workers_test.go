package interactive

import (
	"reflect"
	"runtime"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
)

// runSession drives a fresh session through a fixed focus/tick script
// and returns the estimates it saw plus the final counters.
func runSession(t *testing.T, eval mc.PointEval, workers int) ([]float64, Stats) {
	t.Helper()
	d, err := param.Range("week", 0, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(eval, param.MustSpace(d), Options{MasterSeed: 3, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var means []float64
	for _, focus := range []float64{4, 5, 12, 11, 4} {
		if err := s.SetFocus(param.Point{"week": focus}); err != nil {
			t.Fatal(err)
		}
		for tick := 0; tick < 9; tick++ {
			if _, _, err := s.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		est, ok := s.Estimate(param.Point{"week": focus})
		if !ok {
			t.Fatalf("no estimate for focus %g", focus)
		}
		means = append(means, est.Mean, est.StdDev)
	}
	return means, s.Stats()
}

// TestSessionWorkersDeterministic checks the §5 session reaches a
// bit-identical state whether its per-tick batches are drawn
// sequentially or on a pool: per-sample seeding makes the draw order
// irrelevant. forkEval forces validation failures, so the speculative
// validation path is covered too. The bindbox case draws through the
// PointBinder block path (Demand's vectorized kernel) and must also
// match the same model wrapped as a plain EvalFunc at every worker
// count. Run under -race this also checks the pool itself.
func TestSessionWorkersDeterministic(t *testing.T) {
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 4
	}
	// Demand(current_week, feature_release) with both arguments bound
	// to the session's one parameter.
	demand := blackbox.NewDemand()
	demandFunc := mc.EvalFunc(func(p param.Point, r *rng.Rand) float64 {
		w := p.MustGet("week")
		return demand.Eval([]float64{w, w}, r)
	})
	for _, tc := range []struct {
		name string
		eval mc.PointEval
		// plain, when set, is eval's model as a plain EvalFunc; the
		// session must reach the same state through either.
		plain mc.PointEval
	}{
		{"linear", linearEval, nil},
		{"fork", forkEval, nil},
		{"bindbox", mc.MustBindBox(demand, "week", "week"), demandFunc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seqMeans, seqStats := runSession(t, tc.eval, 1)
			for _, run := range []struct {
				name    string
				eval    mc.PointEval
				workers int
			}{
				{"pool", tc.eval, workers},
				{"plain", tc.plain, 1},
				{"plain pool", tc.plain, workers},
			} {
				if run.eval == nil {
					continue
				}
				means, st := runSession(t, run.eval, run.workers)
				if !reflect.DeepEqual(seqMeans, means) {
					t.Fatalf("%s estimates diverged:\nworkers=1: %v\nworkers=%d: %v", run.name, seqMeans, run.workers, means)
				}
				if seqStats != st {
					t.Fatalf("%s stats diverged:\nworkers=1: %+v\nworkers=%d: %+v", run.name, seqStats, run.workers, st)
				}
			}
		})
	}
}
