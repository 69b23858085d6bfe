package exec

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/mc"
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

// evalRow binds the value row vals into a fresh row, fills it from r
// and returns its column slots: one world of the whole scenario.
func evalRow(s *Scenario, vals []float64, r *rng.Rand) []float64 {
	row := make([]float64, s.RowLen())
	s.BindRow(vals, row)
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
	p := []float64{30, 8, 16, 12}
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
	p := []float64{50, 0, 4, 12}
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
	points := [][]float64{
		{50, 0, 4, 12},
		{20, 48, 52, 36},
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
	bound := ev.BindPoint([]float64{50, 0, 4, 12}, nil)
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

// TestColumnKernelBlockAllocs pins each kind of block at 0
// allocations, at 16 ids and at 1024 (four chunks of
// mc.DefaultBlockSize lanes): a seed-only row reading a warm draw
// table, a row whose lanes draw from pooled per-lane generators
// (graph_users, and Fig. 1 with DrawBox hidden), and a seed-only row
// whose block has ids past the table's bound.
func TestColumnKernelBlockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector (sync.Pool drops puts)")
	}
	fig1, hidden := compileDraws(t, figure1Source)
	users, _ := compileBoth(t, usersSource)
	top := fig1.table.max
	for _, tc := range []struct {
		name string
		s    *Scenario
		ids  func(n int) []int
	}{
		{"seed-only", fig1, sampleIDs},
		{"per-lane generators", users, sampleIDs},
		{"per-lane generators, DrawBox hidden", hidden, sampleIDs},
		{"past the table bound", fig1, func(n int) []int {
			ids := sampleIDs(n)
			ids[n/2] = top + n
			return ids
		}},
	} {
		ev, err := tc.s.ColumnEval("overload")
		if err != nil {
			t.Fatal(err)
		}
		bound := ev.BindPoint(tc.s.Space.Values(tc.s.Space.Size()/2, nil), nil)
		var r rng.Rand
		for _, n := range []int{16, 1024} {
			outs, ids := [][]float64{make([]float64, n)}, tc.ids(n)
			if a := testing.AllocsPerRun(10, func() { ev.EvalBlockBound(bound, outs, 0x5161, ids, &r) }); a != 0 {
				t.Errorf("%s: a %d-id block allocates %.1f, want 0", tc.name, n, a)
			}
		}
	}
}

// TestColumnsMatchOneSlotEvals: a k-slot columns evaluator, the one
// SweepColumns draws, writes bit for bit what k one-slot ColumnEvals
// draw, whatever the slot order, and skips a nil outs entry.
func TestColumnsMatchOneSlotEvals(t *testing.T) {
	s := compileFig1(t)
	p := []float64{50, 0, 4, 12}
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

// TestSweepShortRowReturnsError: a swept value row too short for the
// parameters the row reads panics in BindRow on a worker, and the
// sweep returns that as an error naming the point by its batch
// position and values, for the joint column sweep and a single
// column's evaluator, at one worker and two.
func TestSweepShortRowReturnsError(t *testing.T) {
	s := compileFig1(t)
	short := []float64{30, 8, 16} // no @feature_release
	batch := append(fig1Batches()[0], short)
	want := fmt.Sprintf("point %d [30 8 16]: panic: ", len(batch)-1)
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("%s: err = %v, want prefix %q and an index out of range", what, err, want)
		}
	}
	for _, workers := range []int{1, 2} {
		opts := mc.Options{Samples: 100, Reuse: true, Workers: workers}
		cs, err := s.SweepColumns([]string{"demand", "overload"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, err = streamBatch(cs, batch)
		check("ColumnSweep.Stream", err)
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
	// The parser builds none of these, but CompileScenario takes any
	// script.
	for name, item := range map[string]sqlparse.SelectItem{
		"empty CASE": {Expr: &sqlparse.CaseExpr{}},
		"nil expr":   {},
		"unary plus": {Expr: &sqlparse.Unary{Op: "+", E: &sqlparse.NumberLit{Value: 3}}},
	} {
		script := &sqlparse.Script{Selects: []*sqlparse.SelectStmt{{Items: []sqlparse.SelectItem{item}}}}
		if _, err := CompileScenario(script, nil); err == nil {
			t.Errorf("%s: compile accepted", name)
		}
	}
}

// operatorsSource exercises every operator and builtin on constants.
const operatorsSource = `SELECT 2 + 3 * 4 AS a,
	               ABS(0 - 5) AS b,
	               MINV(3, 7) AS c,
	               MAXV(3, 7) AS d,
	               CASE WHEN 1 < 2 THEN 10 WHEN 1 = 1 THEN 20 END AS e,
	               CASE WHEN 1 > 2 THEN 10 END AS f,
	               NOT (1 < 2) AS g,
	               (1 < 2) AND (3 >= 3) AS h,
	               (1 <> 1) OR (2 <= 1) AS i,
	               -(4 / 2) AS j`

func TestCompileOperatorsAndBuiltins(t *testing.T) {
	script, err := sqlparse.Parse(operatorsSource)
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileScenario(script, nil)
	if err != nil {
		t.Fatal(err)
	}
	slots := evalRow(s, nil, rng.New(1))
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
		slots := evalRow(s, []float64{w}, rng.New(5))
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

// TestCaseConsumesStreamOnAllArmsPerLane extends the test above from
// one row to a block: a row that draws per sample (DrawBox hidden, and
// PointBox hidden too), with model calls in both CASE arms and one
// after the CASE, drawn over a block of scattered sample ids. Each lane
// must equal a hand replay of its own sample: seed with
// rng.SampleSeed(master, id), then call each box's Eval in evaluation
// order, whichever arm the point takes.
func TestCaseConsumesStreamOnAllArmsPerLane(t *testing.T) {
	src := `DECLARE PARAMETER @w AS RANGE 0 TO 60 STEP BY 1;
	SELECT CASE WHEN @w < 30 THEN DemandModel(@w, 99) ELSE CapacityModel(@w, 10, 20) * 2 END AS v,
	       DemandModel(@w, 36) AS after`
	script, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	models := []blackbox.Box{blackbox.NewDemand(), blackbox.NewCapacity()}
	_, pointHidden := pointBoxRegistries(models...)
	const master = 0x5161
	ids := sampleIDs(300)
	for name, reg := range map[string]*blackbox.Registry{"DrawBox hidden": drawHiddenRegistry(models...), "PointBox hidden": pointHidden} {
		s, err := CompileScenario(script, reg)
		if err != nil {
			t.Fatal(err)
		}
		if shared, _ := s.SharesDraws(); shared {
			t.Fatalf("%s: the row is seed-only", name)
		}
		rows := &columns{s: s, slots: []int{0, 1}}
		for _, w := range []float64{10, 50} {
			got := drawColumns(rows, 2, []float64{w}, master, ids, len(ids))
			var r rng.Rand
			for j, id := range ids {
				r.Seed(rng.SampleSeed(master, id))
				d := models[0].Eval([]float64{w, 99}, &r)
				c := models[1].Eval([]float64{w, 10, 20}, &r)
				after := models[0].Eval([]float64{w, 36}, &r)
				v := d
				if w >= 30 {
					v = c * 2
				}
				if got[0][j] != v || got[1][j] != after {
					t.Fatalf("%s, week %g, sample %d: lane = [%g %g], hand replay [%g %g]", name, w, id, got[0][j], got[1][j], v, after)
				}
			}
		}
	}
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
	full := 0
	for week := 0.0; week <= 52; week++ {
		for _, fr := range []float64{12, 36, 44} {
			pr, _ := eng.EvaluatePoint(ev, []float64{week, 0, 0, fr}) // purchases at week 0
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
	slots := evalRow(s, []float64{5}, rng.New(7))
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
		if err != nil || len(s.Space.Chains()) > 0 {
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
		p := s.Space.Values(0, nil)
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
