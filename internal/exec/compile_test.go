package exec

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
	"jigsaw/internal/sqlparse"
)

// figure1Source is the paper's Fig. 1 scenario definition.
const figure1Source = `
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @feature_release AS SET (12,36,44);
SELECT DemandModel(@current_week, @feature_release) AS demand,
       CapacityModel(@current_week, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
`

func stdRegistry() *blackbox.Registry {
	reg := blackbox.NewRegistry()
	reg.MustRegister(blackbox.NewDemand())
	reg.MustRegister(blackbox.NewCapacity())
	return reg
}

func compileFig1(t *testing.T) *Scenario {
	t.Helper()
	script, err := sqlparse.Parse(figure1Source)
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileScenario(script, stdRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// evalRow binds p into a fresh row, fills it from r and returns its
// column slots: one world of the whole scenario.
func evalRow(s *Scenario, p param.Point, r *rng.Rand) []float64 {
	row := make([]float64, s.RowLen())
	s.BindRow(p, row)
	s.FillRow(r, row)
	return row[:len(s.Columns)]
}

func TestCompileFigure1(t *testing.T) {
	s := compileFig1(t)
	if s.Into != "results" {
		t.Fatalf("into = %q", s.Into)
	}
	want := []string{"demand", "capacity", "overload"}
	if len(s.Columns) != 3 {
		t.Fatalf("columns = %v", s.Columns)
	}
	for i, w := range want {
		if s.Columns[i] != w {
			t.Fatalf("columns = %v", s.Columns)
		}
	}
	// 53 weeks × 14 × 14 purchases × 3 releases.
	if s.Space.Size() != 53*14*14*3 {
		t.Fatalf("space size = %d", s.Space.Size())
	}
	if !s.HasColumn("overload") || s.HasColumn("zzz") {
		t.Fatal("HasColumn broken")
	}
}

func TestEvalRowMatchesDirectModels(t *testing.T) {
	s := compileFig1(t)
	p := param.Point{"current_week": 30, "purchase1": 8, "purchase2": 16, "feature_release": 12}
	slots := evalRow(s, p, rng.New(99))
	// Replay by hand with the same stream.
	r := rng.New(99)
	demand := blackbox.NewDemand().Eval([]float64{30, 12}, r)
	capacity := blackbox.NewCapacity().Eval([]float64{30, 8, 16}, r)
	overload := 0.0
	if capacity < demand {
		overload = 1
	}
	if slots[0] != demand || slots[1] != capacity || slots[2] != overload {
		t.Fatalf("row = %v, want [%g %g %g]", slots, demand, capacity, overload)
	}
}

func TestCompileRejectsUndeclaredParameter(t *testing.T) {
	script, err := sqlparse.Parse(`DECLARE PARAMETER @w AS RANGE 0 TO 10 STEP BY 1;
	SELECT DemandModel(@w, @typo) AS demand`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = CompileScenario(script, stdRegistry())
	if err == nil || !strings.Contains(err.Error(), "@typo") {
		t.Fatalf("undeclared parameter: err = %v", err)
	}
}

func TestColumnEval(t *testing.T) {
	s := compileFig1(t)
	ev, err := s.ColumnEval("overload")
	if err != nil {
		t.Fatal(err)
	}
	p := param.Point{"current_week": 50, "purchase1": 0, "purchase2": 4, "feature_release": 12}
	var out [1]float64
	ev.EvalBlockBound(ev.BindPoint(p, nil), [][]float64{out[:]}, 0x5161, []int{3}, new(rng.Rand))
	if v := out[0]; v != 0 && v != 1 {
		t.Fatalf("overload = %g", v)
	}
	if _, err := s.ColumnEval("missing"); err == nil {
		t.Fatal("missing column accepted")
	}
}

// TestColumnEvalBlockMatchesEvalPoint restates the mc.PointEval
// contract for compiled columns: one binding per point and one
// EvalBlockBound per block are bit-identical to a direct loop that
// binds a row and fills it once per reseeded sample, for every column
// and block size, and leave what BindRow wrote in the binding.
func TestColumnEvalBlockMatchesEvalPoint(t *testing.T) {
	s := compileFig1(t)
	const master = 0x5161
	ids := sampleIDs(300)
	points := []param.Point{
		{"current_week": 50, "purchase1": 0, "purchase2": 4, "feature_release": 12},
		{"current_week": 20, "purchase1": 48, "purchase2": 52, "feature_release": 36},
	}
	for _, col := range s.Columns {
		t.Run(col, func(t *testing.T) {
			ev, err := s.ColumnEval(col)
			if err != nil {
				t.Fatal(err)
			}
			idx := slices.Index(s.Columns, col)
			var r rng.Rand
			row := make([]float64, s.RowLen())
			for _, p := range points {
				want := make([]float64, len(ids))
				s.BindRow(p, row)
				for j, id := range ids {
					r.Seed(rng.SampleSeed(master, id))
					s.FillRow(&r, row)
					want[j] = row[idx]
				}
				bound := ev.BindPoint(p, nil)
				var lent rng.Rand
				for _, bs := range []int{1, 7, len(ids)} {
					got := make([]float64, len(ids))
					for lo := 0; lo < len(ids); lo += bs {
						hi := min(lo+bs, len(ids))
						ev.EvalBlockBound(bound, [][]float64{got[lo:hi]}, master, ids[lo:hi], &lent)
					}
					for j := range want {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("at %v, block size %d: sample %d = %v, FillRow %v", p, bs, j, got[j], want[j])
						}
					}
					rebound := slices.Clone(bound)
					s.BindRow(p, rebound)
					if !slices.Equal(rebound, bound) {
						t.Fatal("EvalBlockBound overwrote what BindRow wrote into the binding")
					}
				}
			}
		})
	}
}

// TestColumnEvalBlockAllocs pins the block path's allocation budget: a
// block fills the binding in place from the lent generator, so it
// allocates nothing, per block or per sample.
func TestColumnEvalBlockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector")
	}
	s := compileFig1(t)
	ev, err := s.ColumnEval("overload")
	if err != nil {
		t.Fatal(err)
	}
	bound := ev.BindPoint(param.Point{"current_week": 50, "purchase1": 0, "purchase2": 4, "feature_release": 12}, nil)
	var r rng.Rand
	perBlock := func(n int) float64 {
		outs, ids := [][]float64{make([]float64, n)}, sampleIDs(n)
		return testing.AllocsPerRun(20, func() { ev.EvalBlockBound(bound, outs, 0x5161, ids, &r) })
	}
	const budget = 0
	small, large := perBlock(16), perBlock(1024)
	if large > budget || large != small {
		t.Fatalf("EvalBlockBound allocates %.1f per 16-sample block and %.1f per 1024-sample block, budget %d flat", small, large, budget)
	}
}

// TestColumnsMatchOneSlotEvals: a k-slot columns evaluator, the one
// SweepColumns draws, writes bit for bit what k one-slot ColumnEvals
// draw, whatever the slot order, and skips a nil outs entry.
func TestColumnsMatchOneSlotEvals(t *testing.T) {
	s := compileFig1(t)
	p := param.Point{"current_week": 50, "purchase1": 0, "purchase2": 4, "feature_release": 12}
	ids := sampleIDs(64)
	slots := make([]int, len(s.Columns))
	for c := range slots {
		slots[c] = len(slots) - 1 - c
	}
	rows := &columns{s: s, slots: slots}
	var r rng.Rand
	for skip := range slots {
		outs := make([][]float64, len(slots))
		for c := range outs {
			if c != skip {
				outs[c] = make([]float64, len(ids))
			}
		}
		rows.EvalBlockBound(rows.BindPoint(p, nil), outs, 0x5161, ids, &r)
		if outs[skip] != nil {
			t.Fatalf("nil output %d was replaced", skip)
		}
		for c, slot := range slots {
			if c == skip {
				continue
			}
			ev, err := s.ColumnEval(s.Columns[slot])
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, len(ids))
			ev.EvalBlockBound(ev.BindPoint(p, nil), [][]float64{want}, 0x5161, ids, &r)
			for j := range want {
				if math.Float64bits(outs[c][j]) != math.Float64bits(want[j]) {
					t.Fatalf("output %d (%s), sample %d = %v, ColumnEval drew %v", c, s.Columns[slot], j, outs[c][j], want[j])
				}
			}
		}
	}
}

// TestSweepUnboundParameterReturnsError: a swept point that does not
// bind a parameter the row reads panics in BindRow on a worker, and
// the sweep returns that as an error naming the point, for the joint
// column sweep and a single column's binder, at one worker and two.
func TestSweepUnboundParameterReturnsError(t *testing.T) {
	s := compileFig1(t)
	bad := param.Point{"current_week": 30, "purchase1": 8, "purchase2": 16}
	batch := append(fig1Batches()[0], bad)
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.HasPrefix(err.Error(), "point "+bad.Key()+": ") ||
			!strings.Contains(err.Error(), "does not bind @feature_release") {
			t.Fatalf("%s: err = %v, want the unbound @feature_release at point %s", what, err, bad.Key())
		}
	}
	for _, workers := range []int{1, 2} {
		opts := mc.Options{Samples: 100, Reuse: true, Workers: workers}
		cs, err := s.SweepColumns([]string{"demand", "overload"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, err = cs.Sweep(batch)
		check("ColumnSweep.Sweep", err)
		ev, err := s.ColumnEval("overload")
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = mc.MustNew(opts).SweepBatch(ev, batch)
		check("SweepBatch(ColumnEval)", err)
	}
}

func TestCompileErrors(t *testing.T) {
	for name, src := range map[string]string{
		"no select":     "DECLARE PARAMETER @x AS SET (1)",
		"where":         "SELECT 1 AS a WHERE 1 < 2",
		"from table":    "SELECT x FROM users",
		"dup column":    "SELECT 1 AS a, 2 AS a",
		"unknown col":   "SELECT nope AS a",
		"unknown box":   "SELECT Mystery(1) AS a",
		"box arity":     "SELECT DemandModel(1) AS a",
		"string lit":    "SELECT 'hello' AS a",
		"null":          "SELECT NULL AS a",
		"builtin arity": "SELECT ABS(1, 2) AS a",
	} {
		script, err := sqlparse.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse failed: %v", name, err)
		}
		if _, err := CompileScenario(script, stdRegistry()); err == nil {
			t.Errorf("%s: compile accepted %q", name, src)
		}
	}
	if _, err := CompileScenario(nil, nil); err == nil {
		t.Error("nil script accepted")
	}
}

func TestCompileOperatorsAndBuiltins(t *testing.T) {
	src := `SELECT 2 + 3 * 4 AS a,
	               ABS(0 - 5) AS b,
	               MINV(3, 7) AS c,
	               MAXV(3, 7) AS d,
	               CASE WHEN 1 < 2 THEN 10 WHEN 1 = 1 THEN 20 END AS e,
	               CASE WHEN 1 > 2 THEN 10 END AS f,
	               NOT (1 < 2) AS g,
	               (1 < 2) AND (3 >= 3) AS h,
	               (1 <> 1) OR (2 <= 1) AS i,
	               -(4 / 2) AS j`
	script, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileScenario(script, nil)
	if err != nil {
		t.Fatal(err)
	}
	slots := evalRow(s, param.Point{}, rng.New(1))
	want := []float64{14, 5, 3, 7, 10, 0, 0, 1, 0, -2}
	for i, w := range want {
		if slots[i] != w {
			t.Fatalf("column %s = %g, want %g (all %v)", s.Columns[i], slots[i], w, slots)
		}
	}
}

func TestCaseConsumesStreamOnAllArms(t *testing.T) {
	// Both CASE arms call a model; the generator stream must advance
	// identically whichever arm is selected, so fingerprints stay
	// aligned across parameter values (§3.1).
	src := `DECLARE PARAMETER @w AS RANGE 0 TO 60 STEP BY 1;
	SELECT CASE WHEN @w < 30 THEN DemandModel(@w, 99) ELSE DemandModel(@w, 99) * 2 END AS v,
	       DemandModel(@w, 99) AS after`
	script, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileScenario(script, stdRegistry())
	if err != nil {
		t.Fatal(err)
	}
	// The "after" column must see the same stream position regardless
	// of which arm was taken: the third draw, after both arms' model
	// calls. Week 50 takes the ELSE arm, after the WHEN arm's model
	// call; week 10 takes the WHEN arm, and the ELSE arm's model call
	// still runs.
	for _, w := range []float64{50, 10} {
		slots := evalRow(s, param.Point{"w": w}, rng.New(5))
		// Replay the row by hand: three DemandModel draws.
		r := rng.New(5)
		var draws [3]float64
		for i := range draws {
			draws[i] = blackbox.NewDemand().Eval([]float64{w, 99}, r)
		}
		v := draws[0]
		if w >= 30 {
			v = draws[1] * 2
		}
		if slots[0] != v || slots[1] != draws[2] {
			t.Fatalf("week %g: row = %v, want [%g %g]", w, slots, v, draws[2])
		}
	}
}

func TestUnboundParameterSurfacesError(t *testing.T) {
	s := compileFig1(t)
	ev, err := s.ColumnEval("demand")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if v := recover(); !strings.Contains(fmt.Sprint(v), "@feature_release") {
			t.Fatalf("point missing @feature_release: recovered %v, want a panic naming it", v)
		}
	}()
	ev.BindPoint(param.Point{"current_week": 30, "purchase1": 8, "purchase2": 16}, nil)
}

func TestScenarioSweepReuse(t *testing.T) {
	// End-to-end: sweeping Fig. 1's demand over a year must find very
	// few bases (the §6.2 Demand result: one basis for ~5000 points).
	s := compileFig1(t)
	ev, err := s.ColumnEval("demand")
	if err != nil {
		t.Fatal(err)
	}
	eng := mc.MustNew(mc.Options{Samples: 200, Reuse: true, Workers: 1})
	fixed := param.Point{"purchase1": 0, "purchase2": 0}
	full := 0
	for week := 0.0; week <= 52; week++ {
		for _, fr := range []float64{12, 36, 44} {
			pr, _ := eng.EvaluatePoint(ev, fixed.With("current_week", week).With("feature_release", fr))
			if !pr.Reused {
				full++
			}
		}
	}
	// Demand is one affine family: a single basis (§6.2), plus at most
	// one for the degenerate week-0 point (zero variance → constant).
	if full > 2 {
		t.Fatalf("demand sweep required %d full simulations for 159 points", full)
	}
	if math.IsNaN(float64(full)) {
		t.Fatal("impossible")
	}
}

// subquerySource re-selects a subquery column beside a derived one.
const subquerySource = `
DECLARE PARAMETER @w AS RANGE 0 TO 10 STEP BY 1;
SELECT demand * 2 AS doubled, demand
FROM (SELECT DemandModel(@w, 99) AS demand)
INTO results`

func TestCompileSubqueryColumns(t *testing.T) {
	script, err := sqlparse.Parse(subquerySource)
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileScenario(script, stdRegistry())
	if err != nil {
		t.Fatal(err)
	}
	// Subquery columns come first, then outer columns.
	if len(s.Columns) != 2 || s.Columns[0] != "demand" || s.Columns[1] != "doubled" {
		t.Fatalf("columns = %v", s.Columns)
	}
	slots := evalRow(s, param.Point{"w": 5}, rng.New(7))
	if slots[1] != slots[0]*2 {
		t.Fatalf("doubled = %g, demand = %g", slots[1], slots[0])
	}
	if !strings.Contains(s.Columns[1], "doubled") {
		t.Fatal("impossible")
	}
}

// FuzzCompileScenario checks that CompileScenario never panics and
// that a scenario it accepts without a CHAIN evaluates a row at its
// space's first point without panicking: every name resolves at
// compile time. That row, with its call sites bound, must equal the row
// of the same script compiled with PointBox hidden, bit for bit.
func FuzzCompileScenario(f *testing.F) {
	for _, src := range []string{figure1Source, figure5Source, subquerySource, figure1Source + graphSource} {
		f.Add(src)
	}
	for _, tc := range boundSources {
		f.Add(tc.src)
	}
	reg, hidden := pointBoxRegistries(boundModels()...)
	drawHidden := drawHiddenRegistry(boundModels()...)
	ids := sampleIDs(8)
	f.Fuzz(func(t *testing.T, src string) {
		script, err := sqlparse.Parse(src)
		if err != nil {
			return
		}
		s, err := CompileScenario(script, reg)
		if err != nil || len(s.Chains()) > 0 {
			return
		}
		h, err := CompileScenario(script, hidden)
		if err != nil {
			t.Fatalf("compiles with PointBox but not without: %v", err)
		}
		d, err := CompileScenario(script, drawHidden)
		if err != nil {
			t.Fatalf("compiles with DrawBox but not without: %v", err)
		}
		p := s.Space.Point(0)
		got := evalRow(s, p, rng.New(1))
		if want := evalRow(h, p, rng.New(1)); !sameColumns(got, want, len(got)) {
			t.Fatalf("at %v: bound row %v, Eval row %v", p, got, want)
		}
		if want := evalRow(d, p, rng.New(1)); !sameColumns(got, want, len(got)) {
			t.Fatalf("at %v: row %v, with DrawBox hidden %v", p, got, want)
		}
		// A seed-only row's ColumnEval draws through the table.
		col := s.Columns[len(s.Columns)-1]
		sev, err := s.ColumnEval(col)
		if err != nil {
			t.Fatal(err)
		}
		dev, err := d.ColumnEval(col)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if got, want := drawBlocks(sev, p, 0x5161, ids, 3), drawBlocks(dev, p, 0x5161, ids, 3); !sameColumns(got, want, len(got)) {
				t.Fatalf("at %v: column %s draws %v, with DrawBox hidden %v", p, col, got, want)
			}
		}
	})
}
