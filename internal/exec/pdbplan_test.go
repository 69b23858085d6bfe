package exec

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/pdb"
	"jigsaw/internal/pool"
	"jigsaw/internal/sqlparse"
)

func fig1DB() *pdb.DB {
	db := pdb.NewDB()
	db.Boxes.MustRegister(blackbox.NewDemand())
	db.Boxes.MustRegister(blackbox.NewCapacity())
	return db
}

func TestBuildPDBPlanFigure1(t *testing.T) {
	script, err := sqlparse.Parse(figure1Source)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPDBPlan(script.Selects[0], fig1DB())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Schema().String() != "demand, capacity, overload" {
		t.Fatalf("schema = %s", plan.Schema())
	}
	params := map[string]float64{
		"current_week": 40, "purchase1": 0, "purchase2": 8, "feature_release": 12,
	}
	dist, err := pdb.RunDistribution(plan, params, pdb.WorldsOptions{Worlds: 2000})
	if err != nil {
		t.Fatal(err)
	}
	demand, _ := dist.CellByName(0, "demand")
	capacity, _ := dist.CellByName(0, "capacity")
	overload, _ := dist.CellByName(0, "overload")
	// Demand at week 40 with release at 12: 40 + 0.2·28 ≈ 45.6.
	if math.Abs(demand.Mean-45.6) > 2 {
		t.Fatalf("E[demand] = %g, want ~45.6", demand.Mean)
	}
	// Both purchases online: ~100 - 0.2 + 80 ≈ 180.
	if math.Abs(capacity.Mean-180) > 3 {
		t.Fatalf("E[capacity] = %g, want ~180", capacity.Mean)
	}
	if overload.Mean < 0 || overload.Mean > 0.05 {
		t.Fatalf("E[overload] = %g, want ~0 at week 40", overload.Mean)
	}
}

func TestPDBPlanAgreesWithLightweightEngine(t *testing.T) {
	// The wrapper and the core engine are different execution paths of
	// the same semantics: identical master seed → identical per-world
	// streams → identical estimates (not just statistically close).
	script, err := sqlparse.Parse(figure1Source)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPDBPlan(script.Selects[0], fig1DB())
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]float64{
		"current_week": 30, "purchase1": 4, "purchase2": 12, "feature_release": 36,
	}
	dist, err := pdb.RunDistribution(plan, params, pdb.WorldsOptions{Worlds: 500, MasterSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	wrapDemand, _ := dist.CellByName(0, "demand")

	s, err := CompileScenario(script, stdRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := s.ColumnEval("demand")
	if err != nil {
		t.Fatal(err)
	}
	eng := mustEngine(t, 500, 11)
	pr, _ := eng.EvaluatePoint(ev, valueRow(s, params))
	if math.Abs(pr.Summary.Mean-wrapDemand.Mean) > 1e-9 {
		t.Fatalf("engines disagree: %g vs %g", pr.Summary.Mean, wrapDemand.Mean)
	}
	if math.Abs(pr.Summary.StdDev-wrapDemand.StdDev) > 1e-9 {
		t.Fatalf("stddev disagrees: %g vs %g", pr.Summary.StdDev, wrapDemand.StdDev)
	}
}

// TestPDBPlanEqualityMatchesLightweightEngine: "=" and "<>" between a
// comparison and a number compare by number in the PDB, as exec's
// kernels do, so both engines read (d > 0) = 1 as true in every world.
func TestPDBPlanEqualityMatchesLightweightEngine(t *testing.T) {
	script, err := sqlparse.Parse(`DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
SELECT DemandModel(@current_week, 12) AS d, (d > 0) = 1 AS e, (d > 0) <> 1 AS ne INTO r;`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPDBPlan(script.Selects[0], fig1DB())
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]float64{"current_week": 30}
	dist, err := pdb.RunDistribution(plan, params, pdb.WorldsOptions{Worlds: 500, MasterSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileScenario(script, stdRegistry())
	if err != nil {
		t.Fatal(err)
	}
	eng := mustEngine(t, 500, 11)
	for col, want := range map[string]float64{"e": 1, "ne": 0} {
		cell, err := dist.CellByName(0, col)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := s.ColumnEval(col)
		if err != nil {
			t.Fatal(err)
		}
		pr, _ := eng.EvaluatePoint(ev, valueRow(s, params))
		if cell.Mean != want || pr.Summary.Mean != want {
			t.Fatalf("E[%s]: PDB %g, lightweight engine %g, want %g in both", col, cell.Mean, pr.Summary.Mean, want)
		}
	}
}

func TestBuildPDBPlanWithWhereAndFrom(t *testing.T) {
	db := fig1DB()
	tbl := pdb.MustNewTable("week", "volume")
	tbl.MustAppend(pdb.Row{pdb.Float(1), pdb.Float(10)})
	tbl.MustAppend(pdb.Row{pdb.Float(2), pdb.Float(20)})
	tbl.MustAppend(pdb.Row{pdb.Float(3), pdb.Float(30)})
	if err := db.CreateTable("purchases", tbl); err != nil {
		t.Fatal(err)
	}
	script, err := sqlparse.Parse(`SELECT week, volume * 2 AS dbl FROM purchases WHERE volume > 15`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPDBPlan(script.Selects[0], db)
	if err != nil {
		t.Fatal(err)
	}
	out, err := pdb.RunDistribution(plan, nil, pdb.WorldsOptions{Worlds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if dbl := out.Cells[0][1]; dbl.Mean != 40 {
		t.Fatalf("dbl = %g", dbl.Mean)
	}
	if out.Schema.String() != "week, dbl" {
		t.Fatalf("schema = %s", out.Schema)
	}
}

func TestBuildPDBPlanErrors(t *testing.T) {
	db := fig1DB()
	if _, err := BuildPDBPlan(nil, db); err == nil {
		t.Fatal("nil select accepted")
	}
	for name, src := range map[string]string{
		"missing table": "SELECT x FROM nope",
		"unknown box":   "SELECT Mystery(1) AS a",
		"unknown col":   "SELECT missing_col AS a",
	} {
		script, err := sqlparse.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := BuildPDBPlan(script.Selects[0], db); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// The parser builds neither, but BuildPDBPlan takes any statement.
	for name, item := range map[string]sqlparse.SelectItem{
		"empty CASE": {Expr: &sqlparse.CaseExpr{}},
		"nil expr":   {},
	} {
		stmt := &sqlparse.SelectStmt{Items: []sqlparse.SelectItem{item}}
		if _, err := BuildPDBPlan(stmt, db); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// builtinPoints are the (@x, @y) points TestBuiltinsAgreeAcrossEngines
// applies every builtin to: signs, fractions, both signed zeros, huge
// and tiny magnitudes and a NaN-producing square root.
var builtinPoints = [][2]float64{
	{2.25, 3}, {0.49, -1.5}, {-2.5, 3}, {16, 0.5},
	{0, math.Copysign(0, -1)}, {math.Copysign(0, -1), 0}, {1e-300, 1e300},
}

// TestBuiltinsAgreeAcrossEngines checks that both engines accept every
// builtin of sqlparse.Builtins in any letter case and give it the same
// bits: through ColumnEval and through a one-world Values plan (whose
// cell Min is the world's value, bit for bit).
func TestBuiltinsAgreeAcrossEngines(t *testing.T) {
	names := make([]string, 0, len(sqlparse.Builtins))
	for name := range sqlparse.Builtins {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			args := "@x"
			if sqlparse.Builtins[name] == 2 {
				args = "@x, @y"
			}
			var items []string
			for _, fn := range []string{name, strings.ToLower(name), name[:1] + strings.ToLower(name[1:])} {
				items = append(items, fmt.Sprintf("%s(%s) AS %s", fn, args, fn))
			}
			script, err := sqlparse.Parse(`DECLARE PARAMETER @x AS SET (1);
DECLARE PARAMETER @y AS SET (1);
SELECT ` + strings.Join(items, ", "))
			if err != nil {
				t.Fatal(err)
			}
			s, err := CompileScenario(script, nil)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := BuildPDBPlan(script.Selects[0], pdb.NewDB())
			if err != nil {
				t.Fatal(err)
			}
			for _, xy := range builtinPoints {
				params := map[string]float64{"x": xy[0], "y": xy[1]}
				dist, err := pdb.RunDistribution(plan, params, pdb.WorldsOptions{Worlds: 1})
				if err != nil {
					t.Fatal(err)
				}
				for c, col := range s.Columns {
					ev, err := s.ColumnEval(col)
					if err != nil {
						t.Fatal(err)
					}
					got := drawBlocks(ev, valueRow(s, params), 1, []int{0}, 1)[0]
					cell := dist.Cells[0][c]
					if want := cell.Min; math.Float64bits(got) != math.Float64bits(want) &&
						!(math.IsNaN(got) && math.IsNaN(cell.Mean)) {
						t.Errorf("%s at %v: lightweight %g (%#x), PDB %g (%#x)",
							col, xy, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		})
	}
}

// usersDB is a small users table — one NULL cell, one string column —
// over reg plus UserUsage.
func usersDB(reg *blackbox.Registry) *pdb.DB {
	db := pdb.NewDB()
	db.Boxes = reg
	db.Boxes.MustRegister(blackbox.UserUsage{})
	users := pdb.MustNewTable("join_week", "base", "growth", "vol", "region")
	users.MustAppend(pdb.Row{pdb.Float(0), pdb.Float(2), pdb.Float(1.01), pdb.Float(0.1), pdb.Str("east")})
	users.MustAppend(pdb.Row{pdb.Float(10), pdb.Null(), pdb.Float(1.02), pdb.Float(0.2), pdb.Str("west")})
	users.MustAppend(pdb.Row{pdb.Float(30), pdb.Float(4), pdb.Float(1.03), pdb.Float(0.3), pdb.Str("east")})
	if err := db.CreateTable("users", users); err != nil {
		panic(err)
	}
	return db
}

func TestBuildPDBPlanSelfAliasPassThrough(t *testing.T) {
	// A column aliased to its own name is a pass-through, as the
	// scenario compiler treats it, not a second column of that name.
	db := usersDB(stdRegistry())
	script, err := sqlparse.Parse(`SELECT join_week AS join_week, base FROM users`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPDBPlan(script.Selects[0], db)
	if err != nil {
		t.Fatal(err)
	}
	if got := planShape(plan); got != "Project>Scan" {
		t.Fatalf("lowered to %s, want Project>Scan", got)
	}
	out, err := pdb.RunDistribution(plan, nil, pdb.WorldsOptions{Worlds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.String() != "join_week, base" || out.Cells[2][0].Mean != 30 {
		t.Fatalf("schema %s, join_week[2] = %g", out.Schema, out.Cells[2][0].Mean)
	}
	// Redefining a base column under its own name still collides.
	script, err = sqlparse.Parse(`SELECT join_week + 1 AS join_week FROM users`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPDBPlan(script.Selects[0], db); err == nil {
		t.Fatal("SELECT join_week + 1 AS join_week accepted")
	}
}

func TestBuildPDBPlanMultiArmCase(t *testing.T) {
	script, err := sqlparse.Parse(
		`SELECT CASE WHEN 1 > 2 THEN 10 WHEN 2 > 1 THEN 20 ELSE 30 END AS v, NULL AS n`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPDBPlan(script.Selects[0], fig1DB())
	if err != nil {
		t.Fatal(err)
	}
	out, err := pdb.RunDistribution(plan, nil, pdb.WorldsOptions{Worlds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v := out.Cells[0][0]; v.N != 1 || v.Mean != 20 {
		t.Fatalf("multi-arm CASE = %+v", v)
	}
	if n := out.Cells[0][1]; n.N != 0 {
		t.Fatalf("NULL literal lost: %+v", n) // NULL cells contribute no sample
	}
}

func TestBuildPDBPlanTakesColumnarPath(t *testing.T) {
	// Lowered plans are trees of the pdb package's native operators in
	// the shapes its oracle zoo pins bit for bit (TestColumnarLoweredShapes
	// hand-builds the Fig. 1, FROM and WHERE shapes). Here: the lowering
	// produces exactly those shapes, and their answers do not depend on
	// the worker count.
	db := fig1DB()
	tbl := pdb.MustNewTable("week", "volume")
	tbl.MustAppend(pdb.Row{pdb.Float(10), pdb.Float(40)})
	tbl.MustAppend(pdb.Row{pdb.Float(20), pdb.Float(60)})
	if err := db.CreateTable("purchases", tbl); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, src, shape string }{
		{"fig1", figure1Source, "Project>Extend>Values"},
		{"from", `SELECT week, volume * DemandModel(week, 99) AS noisy FROM purchases WHERE volume > 15`,
			"Project>Select>Extend>Scan"},
		{"where", `SELECT volume AS v FROM purchases WHERE DemandModel(week, 99) > 0`,
			"Project>Select>Extend>Scan"},
	} {
		script, err := sqlparse.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		plan, err := BuildPDBPlan(script.Selects[0], db)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := planShape(plan); got != tc.shape {
			t.Fatalf("%s: lowered to %s, want %s", tc.name, got, tc.shape)
		}
		params := map[string]float64{
			"current_week": 30, "purchase1": 4, "purchase2": 12, "feature_release": 36,
		}
		opts := pdb.WorldsOptions{Worlds: 600, MasterSeed: 3} // blocks of 256, 256 and 88 worlds
		want, err := pdb.RunDistribution(plan, params, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		opts.Workers = 4
		got, err := pdb.RunDistribution(plan, params, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: lowered plan's answer depends on the worker count", tc.name)
		}
	}
}

// planShape renders an operator chain outermost first, e.g.
// "Project>Select>Extend>Scan".
func planShape(p pdb.Plan) string {
	switch n := p.(type) {
	case *pdb.ProjectPlan:
		return "Project>" + planShape(n.Child)
	case *pdb.SelectPlan:
		return "Select>" + planShape(n.Child)
	case *pdb.ExtendPlan:
		return "Extend>" + planShape(n.Child)
	case *pdb.ScanPlan:
		return "Scan"
	case pdb.ValuesPlan:
		return "Values"
	}
	return fmt.Sprintf("%T", p)
}

// FuzzBuildPDBPlan checks that a SELECT BuildPDBPlan accepts runs for
// two blocks of worlds on two workers without panicking, with every
// declared parameter bound to its first value. Errors (unbound names,
// world-varying cardinality, type mismatches) are fine; a panic, also
// one recovered on a worker, is not.
func FuzzBuildPDBPlan(f *testing.F) {
	for _, src := range []string{
		figure1Source,
		subquerySource,
		`DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
SELECT join_week, UserUsage(@current_week, join_week, base, growth, vol) AS usage
FROM users
WHERE join_week < @current_week`,
		`DECLARE PARAMETER @w AS SET (20, 40);
SELECT region, CASE WHEN NOT (base > 3) THEN NULL ELSE UserUsage(@w, join_week, base, growth, vol) END AS u
FROM users WHERE NOT (join_week > @w)`,
	} {
		f.Add(src)
	}
	db := usersDB(fig5Registry())
	opts := pdb.WorldsOptions{Worlds: 300, MasterSeed: 1, Workers: 2}
	f.Fuzz(func(t *testing.T, src string) {
		script, err := sqlparse.Parse(src)
		if err != nil {
			return
		}
		params := make(map[string]float64, len(script.Decls))
		for _, d := range script.Decls {
			switch d.Kind {
			case sqlparse.ParamRange:
				params[d.Name] = d.Lo
			case sqlparse.ParamSet:
				if len(d.Values) > 0 {
					params[d.Name] = d.Values[0]
				}
			case sqlparse.ParamChain:
				params[d.Name] = d.Initial
			}
		}
		for _, stmt := range script.Selects {
			plan, err := BuildPDBPlan(stmt, db)
			if err != nil {
				continue
			}
			_, err = pdb.RunDistribution(plan, params, opts)
			if pe := (*pool.PanicError)(nil); errors.As(err, &pe) {
				t.Fatalf("plan %s panicked: %v\n%s", plan, pe.Value, pe.Stack)
			}
		}
	})
}
