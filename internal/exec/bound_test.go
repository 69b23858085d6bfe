package exec

import (
	"math"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
	"jigsaw/internal/sqlparse"
)

// usersSource is perfbench's graph_users scenario: the per-user model
// against the demand forecast, with a CASE over both.
const usersSource = `
DECLARE PARAMETER @current_week AS RANGE 0 TO 104 STEP BY 1;
DECLARE PARAMETER @feature_release AS SET (12, 36, 44);
SELECT UserSelection(@current_week)                   AS usage,
       DemandModel(@current_week, @feature_release)   AS demand,
       CASE WHEN usage > demand THEN 1 ELSE 0 END     AS overload
INTO results;
`

// boundSources are scenarios whose rows bind call sites, with the
// number of sites that bind: model calls in both arms of a CASE (ELSE
// included), parameter arithmetic and builtins in the arguments, and
// calls that stay per-sample because an argument reads a column or
// another model call.
var boundSources = []struct {
	name, src string
	binds     int
}{
	{"fig1", figure1Source, 2},
	{"graph_users", usersSource, 2},
	{"case arms", `
DECLARE PARAMETER @w AS RANGE 0 TO 60 STEP BY 3;
SELECT CASE WHEN @w < 30 THEN DemandModel(@w, 12) ELSE CapacityModel(@w, 10, 20) END AS v,
       CASE WHEN @w > 40 THEN UserSelection(@w) WHEN @w > 20 THEN 1 ELSE DemandModel(@w, 36) * 2 END AS u,
       UserSelection(@w) AS after`, 5},
	{"arithmetic", `
DECLARE PARAMETER @w AS SET (28, -4, 0, 12, 36, 60);
DECLARE PARAMETER @p AS SET (0, 8, 30);
SELECT UserSelection(@w * 2) AS a,
       DemandModel(ABS(@w), 36) AS b,
       CapacityModel(@w, MINV(@p, 10) + 1, CASE WHEN @w > 20 THEN 5 ELSE -@p END) AS c,
       DemandModel(b + a / 10, @p) AS d,
       DemandModel(CapacityModel(@w, @p, 2), 12) AS e`, 4},
}

// pointBoxRegistries returns the registry of the given models and one
// with each model wrapped in blackbox.Func, which hides PointBox: a
// scenario compiled against the second draws every call through Eval.
func pointBoxRegistries(boxes ...blackbox.Box) (stock, hidden *blackbox.Registry) {
	stock, hidden = blackbox.NewRegistry(), blackbox.NewRegistry()
	for _, b := range boxes {
		stock.MustRegister(b)
		hidden.MustRegister(blackbox.Func{FuncName: b.Name(), NArgs: b.Arity(), Fn: b.Eval})
	}
	return stock, hidden
}

// boundModels are the models of the bound-call tests and the fuzz
// target: every PointBox implementer, and Fig. 5's release model.
func boundModels() []blackbox.Box {
	return []blackbox.Box{blackbox.NewDemand(), blackbox.NewCapacity(),
		blackbox.NewUserSelection(64, 0xabcd), releaseWeekModel()}
}

// compileBoth compiles src against both registries.
func compileBoth(t testing.TB, src string) (stock, hidden *Scenario) {
	t.Helper()
	script, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sreg, hreg := pointBoxRegistries(boundModels()...)
	if stock, err = CompileScenario(script, sreg); err != nil {
		t.Fatal(err)
	}
	if hidden, err = CompileScenario(script, hreg); err != nil {
		t.Fatal(err)
	}
	return stock, hidden
}

// sameColumns compares the column slots of two rows bit for bit.
func sameColumns(a, b []float64, n int) bool {
	for i := range n {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBoundRowsMatchEval: a row whose call sites bind (BindRow does
// their argument-only work) fills bit-identical columns to the same
// script compiled with PointBox hidden, at points across each space
// and over several seeds per point. One row per side is rebound point
// after point, so a state region a binding leaves stale shows.
func TestBoundRowsMatchEval(t *testing.T) {
	for _, tc := range boundSources {
		t.Run(tc.name, func(t *testing.T) {
			stock, hidden := compileBoth(t, tc.src)
			if len(stock.binds) != tc.binds || len(hidden.binds) != 0 {
				t.Fatalf("bound call sites: %d with PointBox, %d without; want %d and none",
					len(stock.binds), len(hidden.binds), tc.binds)
			}
			srow, hrow := make([]float64, stock.RowLen()), make([]float64, hidden.RowLen())
			n := stock.Space.Size()
			var sr, hr rng.Rand
			for i := 0; i < n; i += max(1, n/97) {
				p := stock.Space.Values(i, nil)
				stock.BindRow(p, srow)
				hidden.BindRow(p, hrow)
				for seed := uint64(1); seed <= 5; seed++ {
					sr.Seed(seed)
					hr.Seed(seed)
					stock.FillRow(&sr, srow)
					hidden.FillRow(&hr, hrow)
					if !sameColumns(srow, hrow, len(stock.Columns)) {
						t.Fatalf("at %v seed %d: bound row %v, Eval row %v", p, seed,
							srow[:len(stock.Columns)], hrow[:len(hidden.Columns)])
					}
					if sr.State() != hr.State() {
						t.Fatalf("at %v seed %d: the rows leave the generator in different states", p, seed)
					}
				}
			}
		})
	}
}

// TestBoundBareArgumentsCompileNoKernel: BindRow writes a bound call
// site's bare @param arguments straight into its argument slots, so
// the sites of Fig. 1 and graph_users, whose arguments are all bare
// parameters, compile no argument kernel; other arguments still do.
func TestBoundBareArgumentsCompileNoKernel(t *testing.T) {
	for _, tc := range boundSources {
		s, _ := compileBoth(t, tc.src)
		kernels := 0
		for _, bc := range s.binds {
			kernels += len(bc.prog)
		}
		bare := tc.name == "fig1" || tc.name == "graph_users"
		if bare != (kernels == 0) {
			t.Errorf("%s: its bound sites compile %d argument kernels", tc.name, kernels)
		}
	}
}

// TestBoundChainMatchesEval: Fig. 5's DemandModel call reads the CHAIN
// parameter, which ScenarioChain.Step binds per step, so it binds too;
// stepping the chain gives the same states as with PointBox hidden.
func TestBoundChainMatchesEval(t *testing.T) {
	stock, hidden := compileBoth(t, figure5Source)
	if len(stock.binds) != 1 {
		t.Fatalf("Fig. 5 binds %d call sites, want its DemandModel call", len(stock.binds))
	}
	sc, err := NewScenarioChain(stock, "demand", param.Point{})
	if err != nil {
		t.Fatal(err)
	}
	hc, err := NewScenarioChain(hidden, "demand", param.Point{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		sr, hr := rng.New(seed), rng.New(seed)
		ss, hs := sc.Initial(), hc.Initial()
		for step := 1; step <= 52; step++ {
			ss, hs = sc.Step(step, ss, sr), hc.Step(step, hs, hr)
			if !sameColumns(ss, hs, len(ss)) {
				t.Fatalf("seed %d step %d: bound chain state %v, Eval chain state %v", seed, step, ss, hs)
			}
		}
	}
}

// TestBoundRowAllocs: binding a point, bound call sites included, and
// filling the row allocate nothing.
func TestBoundRowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector")
	}
	for _, tc := range boundSources {
		s, _ := compileBoth(t, tc.src)
		row := make([]float64, s.RowLen())
		p := s.Space.Values(s.Space.Size()/2, nil)
		r := rng.New(1)
		if n := testing.AllocsPerRun(100, func() {
			s.BindRow(p, row)
			s.FillRow(r, row)
		}); n != 0 {
			t.Errorf("%s: BindRow+FillRow allocate %.1f per call, want 0", tc.name, n)
		}
	}
}
