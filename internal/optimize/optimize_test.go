package optimize

import (
	"math"
	"reflect"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/exec"
	"jigsaw/internal/mc"
	"jigsaw/internal/sqlparse"
)

// scenarioSource is a compact Fig. 1-style scenario: one purchase date
// and a feature release; the optimizer must find the latest purchase
// that keeps overload risk below threshold.
const scenarioSource = `
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 48 STEP BY 8;
DECLARE PARAMETER @feature_release AS SET (12, 36);
SELECT DemandModel(@current_week, @feature_release) AS demand,
       CapacityModel(@current_week, @purchase1, 0) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
`

const optimizeSource = `
OPTIMIZE SELECT @purchase1, @feature_release
FROM results
WHERE MAX(EXPECT overload) < 0.02
GROUP BY purchase1, feature_release
FOR MAX @purchase1
`

func compileScenario(t *testing.T, src string) (*exec.Scenario, *sqlparse.Script) {
	t.Helper()
	script, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	reg := blackbox.NewRegistry()
	// Demand scaled so it approaches the 140-core single-purchase
	// capacity near year end: the optimizer faces a real trade-off
	// between late purchases (cheap) and overload risk.
	reg.MustRegister(&blackbox.Demand{BaseRate: 2.5, BaseVarRate: 1, FeatureRate: 0.3, FeatureVarRate: 0.3})
	reg.MustRegister(blackbox.NewCapacity())
	s, err := exec.CompileScenario(script, reg)
	if err != nil {
		t.Fatal(err)
	}
	return s, script
}

func testOpts() mc.Options {
	// ValidationSamples guards the boolean overload column against the
	// §6.2 false-positive mode (an all-zero fingerprint matching an
	// all-zero basis whose true risk differs).
	return mc.Options{Samples: 400, Reuse: true, Workers: 1, MasterSeed: 5,
		KeepSamples: true, ValidationSamples: 64}
}

func TestRunOptimizeFindsLatestSafePurchase(t *testing.T) {
	s, script := compileScenario(t, scenarioSource+optimizeSource)
	res, err := Run(s, script.Optimize, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 7*2 {
		t.Fatalf("groups = %d, want 14", res.Groups)
	}
	if res.Chosen == nil {
		t.Fatalf("no feasible group found (feasible=%d)", res.Feasible)
	}
	chosen := res.Chosen.MustGet("purchase1")
	// Demand ~2.5/wk approaches the pre-purchase capacity (~140) near
	// year end; the purchase must be online comfortably before the
	// crossing, so very late purchases are infeasible while mid-year
	// ones pass.
	if chosen < 8 || chosen > 44 {
		t.Fatalf("chosen purchase1 = %g, outside plausible band", chosen)
	}
	if len(res.ConstraintValues) != 1 || res.ConstraintValues[0] >= 0.02 {
		t.Fatalf("constraint values = %v", res.ConstraintValues)
	}
	// The goal is MAX purchase1: no feasible group may have a later
	// purchase. Verify by checking the next step up is infeasible or
	// equal to chosen.
	if res.Feasible == 0 || res.Feasible == res.Groups {
		t.Fatalf("degenerate feasibility: %d/%d", res.Feasible, res.Groups)
	}
}

func TestRunOptimizeReusesAcrossGroups(t *testing.T) {
	s, script := compileScenario(t, scenarioSource+optimizeSource)
	res, err := Run(s, script.Optimize, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// 14 groups × 14 sweep points = 196 evaluations; reuse must cover
	// the overwhelming majority (the §6.2 claim).
	if res.PointsEvaluated != 14*14 {
		t.Fatalf("points evaluated = %d", res.PointsEvaluated)
	}
	if res.Stats.FullSimulations > 60 {
		t.Fatalf("full simulations = %d of %d; reuse ineffective",
			res.Stats.FullSimulations, res.PointsEvaluated)
	}
	if res.Stats.Reused+res.Stats.FullSimulations != res.PointsEvaluated {
		t.Fatalf("stats inconsistent: %+v", res.Stats)
	}
}

func TestRunOptimizeValidation(t *testing.T) {
	s, script := compileScenario(t, scenarioSource+optimizeSource)
	opts := testOpts()

	if _, err := Run(s, nil, opts); err == nil {
		t.Fatal("nil statement accepted")
	}
	cases := map[string]func() *sqlparse.OptimizeStmt{
		"wrong from": func() *sqlparse.OptimizeStmt {
			o := *script.Optimize
			o.From = "other"
			return &o
		},
		"goal not grouped": func() *sqlparse.OptimizeStmt {
			o := *script.Optimize
			o.Goals = []sqlparse.Goal{{Maximize: true, Param: "current_week"}}
			return &o
		},
		"no goals": func() *sqlparse.OptimizeStmt {
			o := *script.Optimize
			o.Goals = nil
			return &o
		},
		"no constraints": func() *sqlparse.OptimizeStmt {
			o := *script.Optimize
			o.Constraints = nil
			return &o
		},
		"unknown constraint column": func() *sqlparse.OptimizeStmt {
			o := *script.Optimize
			o.Constraints = []sqlparse.Constraint{{Outer: "MAX", Column: "zzz", Op: "<", Bound: 1}}
			return &o
		},
		"unknown group param": func() *sqlparse.OptimizeStmt {
			o := *script.Optimize
			o.GroupBy = []string{"purchase1", "zzz"}
			o.Goals = []sqlparse.Goal{{Maximize: true, Param: "purchase1"}}
			return &o
		},
	}
	for name, build := range cases {
		if _, err := Run(s, build(), opts); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	bad := opts
	bad.Workers = -1
	if _, err := Run(s, script.Optimize, bad); err == nil {
		t.Error("invalid engine options accepted")
	}
}

func TestRunOptimizeInfeasible(t *testing.T) {
	s, script := compileScenario(t, scenarioSource+`
OPTIMIZE SELECT @purchase1, @feature_release
FROM results
WHERE MAX(EXPECT overload) < -1
GROUP BY purchase1, feature_release
FOR MAX @purchase1`)
	res, err := Run(s, script.Optimize, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Chosen != nil || res.Feasible != 0 {
		t.Fatalf("impossible constraint yielded %+v", res)
	}
}

func TestRunOptimizeMinGoalAndStdDevMetric(t *testing.T) {
	s, script := compileScenario(t, scenarioSource+`
OPTIMIZE SELECT @purchase1, @feature_release
FROM results
WHERE MAX(EXPECT_STDDEV demand) < 1000 AND AVG(EXPECT overload) >= 0
GROUP BY purchase1, feature_release
FOR MIN @purchase1, MIN @feature_release`)
	res, err := Run(s, script.Optimize, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// All groups feasible under the loose bounds; MIN goals pick the
	// earliest purchase and release.
	if res.Feasible != res.Groups {
		t.Fatalf("feasible = %d of %d", res.Feasible, res.Groups)
	}
	if res.Chosen.MustGet("purchase1") != 0 || res.Chosen.MustGet("feature_release") != 12 {
		t.Fatalf("chosen = %v", res.Chosen)
	}
	if len(res.ConstraintValues) != 2 {
		t.Fatalf("constraint values = %v", res.ConstraintValues)
	}
}

// TestRunOptimizeSharedConstraintColumn: two constraints on one column
// sweep it once, so the run does exactly the work of either constraint
// alone and reports the same values. The loose bounds make every group
// feasible, so all three runs choose the same group.
func TestRunOptimizeSharedConstraintColumn(t *testing.T) {
	run := func(where string) *Result {
		t.Helper()
		s, script := compileScenario(t, scenarioSource+`
OPTIMIZE SELECT @purchase1, @feature_release
FROM results
WHERE `+where+`
GROUP BY purchase1, feature_release
FOR MAX @purchase1, MAX @feature_release`)
		res, err := Run(s, script.Optimize, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	both := run("MAX(EXPECT overload) < 2 AND AVG(EXPECT overload) < 2")
	maxOnly := run("MAX(EXPECT overload) < 2")
	avgOnly := run("AVG(EXPECT overload) < 2")

	const points = 7 * 2 * 14 // (purchase1 × feature_release) groups × weeks
	if both.Stats.Points != points || both.PointsEvaluated != points {
		t.Fatalf("points = %d (evaluated %d), want one column's %d",
			both.Stats.Points, both.PointsEvaluated, points)
	}
	if !reflect.DeepEqual(both.Stats, maxOnly.Stats) {
		t.Fatalf("shared-column stats %+v, single constraint %+v", both.Stats, maxOnly.Stats)
	}
	// The column sweep sums per-call statistics across every batch of
	// the (group × sweep) product, so each point is one reuse decision
	// answered exactly once.
	for _, res := range []*Result{both, maxOnly, avgOnly} {
		if st := res.Stats; st.FullSimulations+st.Reused != st.Points || st.Store.Queries != st.Points {
			t.Fatalf("stats %+v: want Points == FullSimulations + Reused == Store.Queries", st)
		}
	}
	want := []float64{maxOnly.ConstraintValues[0], avgOnly.ConstraintValues[0]}
	for i, w := range want {
		if math.Float64bits(both.ConstraintValues[i]) != math.Float64bits(w) {
			t.Fatalf("constraint values %v, single-constraint runs %v", both.ConstraintValues, want)
		}
	}
	if !reflect.DeepEqual(both.Chosen, maxOnly.Chosen) || !reflect.DeepEqual(both.Chosen, avgOnly.Chosen) {
		t.Fatalf("chosen %v, single-constraint runs %v and %v", both.Chosen, maxOnly.Chosen, avgOnly.Chosen)
	}
}
