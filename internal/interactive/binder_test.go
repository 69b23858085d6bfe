package interactive

import (
	"reflect"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
)

// runSession drives a fresh session through a fixed focus/tick script
// and returns the estimates it saw plus the final counters.
func runSession(t *testing.T, eval mc.PointEval) ([]float64, Stats) {
	t.Helper()
	d, err := param.Range("week", 0, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(eval, param.MustSpace(d), Options{MasterSeed: 3})
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

// TestSessionBinderMatchesPlainEval checks that a session reaches a
// bit-identical state whether its batches draw through a box's native
// block kernel or through the reseed-per-sample reference: the same
// model behind a blackbox.Func, which the scalar block adapter draws
// one reseeded Eval at a time. Demand has a vectorized kernel;
// SynthBasis, with none, draws through the scalar adapter either way,
// over one basis per class.
func TestSessionBinderMatchesPlainEval(t *testing.T) {
	for _, tc := range []struct {
		name string
		box  blackbox.Box
		// args maps the session's one parameter onto the box's
		// arguments.
		args []string
	}{
		{"demand", blackbox.NewDemand(), []string{"week", "week"}},
		{"synth", blackbox.NewSynthBasis(3), []string{"week"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			box := tc.box
			plain := mc.MustBindBox(blackbox.Func{FuncName: box.Name(), NArgs: box.Arity(), Fn: box.Eval}, tc.args...)
			bound := mc.MustBindBox(box, tc.args...)
			wantMeans, wantStats := runSession(t, plain)
			means, st := runSession(t, bound)
			if !reflect.DeepEqual(wantMeans, means) {
				t.Fatalf("estimates diverged:\nplain:  %v\nbinder: %v", wantMeans, means)
			}
			if wantStats != st {
				t.Fatalf("stats diverged:\nplain:  %+v\nbinder: %+v", wantStats, st)
			}
			if st.Evaluations == 0 {
				t.Fatal("session drew nothing")
			}
		})
	}
}
