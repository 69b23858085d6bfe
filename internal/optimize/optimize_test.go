package optimize

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/exec"
	"jigsaw/internal/mc"
	"jigsaw/internal/pool"
	"jigsaw/internal/rng"
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
	return mc.Options{Samples: 400, Reuse: true, Workers: 1, MasterSeed: 5, ValidationSamples: 64}
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

// fig1Source is the paper's Fig. 1 script: 14 × 14 × 3 = 588 groups of
// 27 swept weeks.
const fig1Source = `
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 2;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @feature_release AS SET (12, 36, 44);
SELECT DemandModel(@current_week, @feature_release) AS demand,
       CapacityModel(@current_week, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
OPTIMIZE SELECT @feature_release, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.02
GROUP BY feature_release, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2
`

// runPerGroup is Run's test oracle: the loop Run replaced, one
// ColumnSweep.Stream per group, keeping every feasible group and then
// the goal-best of them (the earliest among equals).
func runPerGroup(t *testing.T, s *exec.Scenario, stmt *sqlparse.OptimizeStmt, opts mc.Options) *Result {
	t.Helper()
	q, err := newQuery(s, stmt, opts)
	if err != nil {
		t.Fatal(err)
	}
	type group struct {
		idx    int
		values []float64
	}
	var feasible []group
	for g := 0; g < q.groups.Size(); g++ {
		var batch [][]float64
		for j := 0; j < q.sweeps.Size(); j++ {
			p := q.groups.Point(g)
			maps.Copy(p, q.sweeps.Point(j))
			row := make([]float64, 0, len(p))
			for _, d := range s.Space.Decls() {
				row = append(row, p[d.Name])
			}
			batch = append(batch, row)
		}
		row := func(j int, dst []float64) []float64 { return append(dst, batch[j]...) }
		if err := q.sweep.Stream(len(batch), row, func(_ int, pr []mc.PointResult) { q.add(pr) }); err != nil {
			t.Fatal(err)
		}
		if values, ok := q.score(); ok {
			feasible = append(feasible, group{g, slices.Clone(values)})
		}
	}
	res := &Result{Groups: q.groups.Size(), Feasible: len(feasible), Stats: q.sweep.Stats()}
	res.PointsEvaluated = res.Stats.Points
	if len(feasible) > 0 {
		best := feasible[0]
		for _, cand := range feasible[1:] {
			if q.better(cand.idx, best.idx) {
				best = cand
			}
		}
		res.Chosen, res.ConstraintValues = q.groups.Point(best.idx), best.values
	}
	return res
}

// TestRunStreamMatchesPerGroupSweeps checks that streaming the whole
// (group × sweep) space through one sweep is exact: the chosen group,
// its constraint values, the counts and the reuse statistics are
// bit-identical to one sweep per group, with reuse on and off, with and
// without match validation, at every worker count. Neither point count
// is a whole number of the sweep's 128-point windows: Fig. 1's 588
// groups of 27 weeks are 15876 = 124·128 + 4 points, and dropping
// purchase2's last value leaves 546 groups, 14742 = 115·128 + 22.
func TestRunStreamMatchesPerGroupSweeps(t *testing.T) {
	smallSource := strings.Replace(fig1Source, "@purchase2 AS RANGE 0 TO 52", "@purchase2 AS RANGE 0 TO 48", 1)
	for _, tc := range []struct {
		name              string
		src               string
		groups            int
		reuse             bool
		validationSamples int
	}{
		{"fig1/reuse/validation", fig1Source, 14 * 14 * 3, true, 16},
		{"546groups/noreuse", smallSource, 14 * 13 * 3, false, 0},
		{"546groups/reuse", smallSource, 14 * 13 * 3, true, 0},
		{"546groups/reuse/validation", smallSource, 14 * 13 * 3, true, 16},
	} {
		s, script := compileScenario(t, tc.src)
		opts := mc.Options{Samples: 40, MasterSeed: 3, Reuse: tc.reuse, Workers: 1,
			Index: mc.IndexNormalization, ValidationSamples: tc.validationSamples}
		want := runPerGroup(t, s, script.Optimize, opts)
		if want.Groups != tc.groups || want.Chosen == nil {
			t.Fatalf("%s: %d groups, oracle chose %v", tc.name, want.Groups, want.Chosen)
		}
		if tc.reuse && (want.Stats.Reused == 0 || want.Stats.Reused == want.Stats.Points) {
			t.Fatalf("%s: oracle reused %d of %d points", tc.name, want.Stats.Reused, want.Stats.Points)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				opts := opts
				opts.Workers = workers
				got, err := Run(s, script.Optimize, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("streamed run\n%+v\nper-group sweeps\n%+v", got, want)
				}
				for i, v := range want.ConstraintValues {
					if math.Float64bits(got.ConstraintValues[i]) != math.Float64bits(v) {
						t.Fatalf("constraint %d = %v, oracle %v", i, got.ConstraintValues[i], v)
					}
				}
			})
		}
	}
}

// fragileSource sweeps FragileModel over 7 × 2 groups of 27 weeks, 378
// points: more than one sweep window.
const fragileSource = `
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 2;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 48 STEP BY 8;
DECLARE PARAMETER @feature_release AS SET (12, 36);
SELECT FragileModel(@current_week, @purchase1, @feature_release) AS risk
INTO results;
OPTIMIZE SELECT @purchase1, @feature_release
FROM results
WHERE MAX(EXPECT risk) < 1000
GROUP BY purchase1, feature_release
FOR MAX @purchase1
`

// TestRunPanicNamesEnumerationIndex makes a registered model panic at
// one point of an OPTIMIZE, while its prefix is drawn (phase A) and
// while it is simulated (phase C1), and requires an error naming the
// point by its index in the (group × sweep) enumeration and its value
// row, no goroutine left behind, and a clean run of the same scenario
// afterwards.
func TestRunPanicNamesEnumerationIndex(t *testing.T) {
	// Group (purchase1 24, feature_release 36) is group 3·2 + 1 = 7 and
	// week 30 is sweep point 15, so the point is 7·27 + 15 = 204; its
	// value row, in declaration order, is [30 24 36].
	bad := []float64{30, 24, 36}
	const want = "point 204 [30 24 36]: panic: model failure"
	var at, count atomic.Int64
	reg := blackbox.NewRegistry()
	reg.MustRegister(blackbox.Func{FuncName: "FragileModel", NArgs: 3, Fn: func(a []float64, r *rng.Rand) float64 {
		u := r.Uniform(0, 1)
		if !slices.Equal(a, bad) {
			return u*(a[0]+1) + a[1]
		}
		if count.Add(1) == at.Load() {
			panic("model failure")
		}
		return math.Exp(3 * u) // no other point maps onto it: it is simulated
	}})
	script, err := sqlparse.Parse(fragileSource)
	if err != nil {
		t.Fatal(err)
	}
	s, err := exec.CompileScenario(script, reg)
	if err != nil {
		t.Fatal(err)
	}
	const m = 10
	for _, phase := range []struct {
		name string
		at   int64 // the bad point's evaluation that panics
	}{{"A", 1}, {"C1", m + 1}} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("phase%s/workers=%d", phase.name, workers), func(t *testing.T) {
				opts := mc.Options{Samples: 200, FingerprintLen: m, MasterSeed: 3, Reuse: true,
					Index: mc.IndexNormalization, Workers: workers}
				baseline := runtime.NumGoroutine()
				count.Store(0)
				at.Store(phase.at)
				_, err := Run(s, script.Optimize, opts)
				var perr *pool.PanicError
				if !errors.As(err, &perr) || perr.Value != "model failure" || err.Error() != want {
					t.Fatalf("err = %v, want %q", err, want)
				}
				if got := count.Load(); got != phase.at {
					t.Fatalf("the bad point ran %d evaluations, want the panic at %d", got, phase.at)
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > baseline {
					t.Fatalf("%d goroutines after the failed run, %d before", n, baseline)
				}
				at.Store(0) // disarm
				res, err := Run(s, script.Optimize, opts)
				if err != nil || res.PointsEvaluated != 378 || res.Chosen == nil {
					t.Fatalf("run after the failure: %+v, %v", res, err)
				}
			})
		}
	}
}

// TestRunAllocsPerPoint pins Run's allocation budget per (group ×
// sweep) point over the Fig. 1 script. The sweep's window is per call,
// and a reused point's mapped summary is a value, so what remains per
// point is a new basis' payload (with validation, its retained prefix)
// — and nothing per sample, so the count is the same at 40 samples as
// at 400.
func TestRunAllocsPerPoint(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector (sync.Pool drops puts)")
	}
	s, script := compileScenario(t, fig1Source)
	perPoint := func(samples, validation int) float64 {
		opts := mc.Options{Samples: samples, MasterSeed: 3, Reuse: true, Workers: 1,
			Index: mc.IndexNormalization, ValidationSamples: validation}
		points := 0
		allocs := testing.AllocsPerRun(2, func() {
			res, err := Run(s, script.Optimize, opts)
			if err != nil {
				t.Fatal(err)
			}
			points = res.PointsEvaluated
		})
		return allocs / float64(points)
	}
	// Observed with Go 1.24: 0.20 per point, 0.30 validating.
	for _, validation := range []int{0, 16} {
		t.Run(fmt.Sprintf("validation=%d", validation), func(t *testing.T) {
			small, large := perPoint(40, validation), perPoint(400, validation)
			t.Logf("%.2f per point at 40 samples, %.2f at 400", small, large)
			if large > 1 {
				t.Errorf("Run allocates %.2f per point, budget 1", large)
			}
			if large > small+0.5 {
				t.Errorf("Run allocates %.2f per point at 400 samples vs %.2f at 40: allocations grow with the sample count",
					large, small)
			}
		})
	}
}
