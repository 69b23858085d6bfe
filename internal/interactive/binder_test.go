package interactive

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/exec"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/sqlparse"
)

// runSession drives a fresh session through a fixed focus/tick script
// and returns the estimates it saw plus the final counters.
func runSession(t *testing.T, eval mc.PointEval) ([]float64, Stats) {
	t.Helper()
	s, err := NewSession(eval, Options{MasterSeed: 3})
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
			space := weeks(t, 0, 20)
			plain := mc.MustBindBox(blackbox.Func{FuncName: box.Name(), NArgs: box.Arity(), Fn: box.Eval}, space, tc.args...)
			bound := mc.MustBindBox(box, space, tc.args...)
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

// pointOnlyBox shows a model's PointBox capability and hides DrawBox,
// so a scenario row of it draws its samples through the generator.
type pointOnlyBox struct{ blackbox.PointBox }

// compileFig1 compiles the Fig. 1 scenario with the stock models, or
// with their DrawBox capability hidden.
func compileFig1(t *testing.T, hideDraws bool) *exec.Scenario {
	t.Helper()
	script, err := sqlparse.Parse(figure1Source)
	if err != nil {
		t.Fatal(err)
	}
	reg := blackbox.NewRegistry()
	for _, b := range []blackbox.PointBox{blackbox.NewDemand(), blackbox.NewCapacity()} {
		if hideDraws {
			b = pointOnlyBox{b}
		}
		reg.MustRegister(b)
	}
	s, err := exec.CompileScenario(script, reg)
	if err != nil {
		t.Fatal(err)
	}
	if shared, _ := s.SharesDraws(); shared == hideDraws {
		t.Fatalf("DrawBox hidden %v, but the row shares draws %v", hideDraws, shared)
	}
	return s
}

// TestSeedOnlySessionMatchesGeneratorPath: a session over a seed-only
// Fig. 1 column, whose scattered sample ids draw through the
// scenario's draw table, reaches bit for bit the estimates and
// counters of the same column with DrawBox hidden, through focus moves
// and ticks.
func TestSeedOnlySessionMatchesGeneratorPath(t *testing.T) {
	focuses := []param.Point{
		{"current_week": 50, "purchase1": 0, "purchase2": 4, "feature_release": 12},
		{"current_week": 30, "purchase1": 8, "purchase2": 16, "feature_release": 36},
		{"current_week": 31, "purchase1": 8, "purchase2": 16, "feature_release": 36},
		{"current_week": 50, "purchase1": 0, "purchase2": 4, "feature_release": 12},
	}
	run := func(col string, hideDraws bool) ([]uint64, Stats) {
		scenario := compileFig1(t, hideDraws)
		ev, err := scenario.ColumnEval(col)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(ev, Options{MasterSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var bits []uint64
		for _, focus := range focuses {
			if err := s.SetFocus(focus); err != nil {
				t.Fatal(err)
			}
			for range 9 {
				_, p, err := s.Tick()
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range []param.Point{focus, p} {
					est, _ := s.Estimate(q)
					for _, v := range []float64{est.Mean, est.StdDev, est.Min, est.Max} {
						bits = append(bits, math.Float64bits(v))
					}
				}
			}
		}
		return bits, s.Stats()
	}
	for _, col := range []string{"overload", "capacity"} {
		got, gotStats := run(col, false)
		want, wantStats := run(col, true)
		if !slices.Equal(got, want) || gotStats != wantStats {
			t.Fatalf("%s: seed-only session diverged from the generator path: stats %+v, want %+v", col, gotStats, wantStats)
		}
		if gotStats.Evaluations == 0 {
			t.Fatalf("%s: session drew nothing", col)
		}
	}
}
