package pdb

import (
	"reflect"
	"strings"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/rng"
	"jigsaw/internal/sqlparse"
)

// evalExpr parses and binds the expression src against schema and
// evaluates it on row in one world of the block executor.
func evalExpr(t *testing.T, src string, s Schema, row Row, params map[string]float64) Value {
	t.Helper()
	v, err := evalWorld(mustBind(t, src, s, testBoxes()), row, params, 1)
	if err != nil {
		t.Fatalf("eval %s: %v", src, err)
	}
	return v
}

// oneWorldCtx returns a block context holding world 0 of master, which
// draws from rng.SampleSeed(master, 0).
func oneWorldCtx(master uint64, params map[string]float64) *BlockCtx {
	ctx := &BlockCtx{}
	ctx.reset(master, 0, 1, params, nil)
	return ctx
}

// evalWorld evaluates a bound expression on row in world 0 of master.
func evalWorld(b BoundExpr, row Row, params map[string]float64, master uint64) (Value, error) {
	return evalIn(oneWorldCtx(master, params), b, row)
}

// evalIn evaluates b on row (as uniform columns) in ctx's first world.
func evalIn(ctx *BlockCtx, b BoundExpr, row Row) (Value, error) {
	br := ctx.newRow(len(row))
	for i, v := range row {
		br[i] = ctx.uniformVec(v)
	}
	v, err := b.EvalBlock(br, nil, ctx)
	if err != nil {
		return Null(), err
	}
	return v.Lane(0), nil
}

func testBoxes() *blackbox.Registry {
	reg := blackbox.NewRegistry()
	reg.MustRegister(blackbox.NewDemand())
	return reg
}

func TestLiteralAndColumn(t *testing.T) {
	s := Schema{{Name: "a"}, {Name: "b"}}
	row := Row{Float(3), Str("x")}
	if v := evalExpr(t, "7", s, row, nil); !v.Equal(Float(7)) {
		t.Fatal("literal broken")
	}
	if v := evalExpr(t, "'x'", s, row, nil); !v.Equal(Str("x")) {
		t.Fatal("string literal broken")
	}
	if v := evalExpr(t, "b", s, row, nil); !v.Equal(Str("x")) {
		t.Fatal("column broken")
	}
	if _, err := Bind(sqlExpr(t, "zzz"), s, nil); err == nil {
		t.Fatal("missing column bound")
	}
}

func TestParamRef(t *testing.T) {
	v := evalExpr(t, "@week", Schema{}, Row{}, map[string]float64{"week": 12})
	if !v.Equal(Float(12)) {
		t.Fatalf("param = %v", v)
	}
	b := mustBind(t, "@missing", Schema{}, nil)
	if _, err := evalWorld(b, Row{}, map[string]float64{}, 1); err == nil {
		t.Fatal("unbound param evaluated")
	}
}

// TestParamReadsBlockParams checks that a bound parameter reads the
// parameters of the block it evaluates in: one bound expression over
// two names, evaluated in one context reset with new values, sees the
// new values, and a name the block does not bind is an error naming it.
func TestParamReadsBlockParams(t *testing.T) {
	b := mustBind(t, "@a - @b", Schema{}, nil)
	ctx := &BlockCtx{}
	for _, params := range []map[string]float64{{"a": 5, "b": 2}, {"a": 1, "b": 4}} {
		ctx.reset(1, 0, 1, params, nil)
		v, err := evalIn(ctx, b, Row{})
		if err != nil {
			t.Fatal(err)
		}
		if want := Float(params["a"] - params["b"]); v != want {
			t.Fatalf("@a - @b with %v = %v, want %v", params, v, want)
		}
	}
	ctx.reset(1, 0, 1, map[string]float64{"a": 1}, nil)
	if _, err := evalIn(ctx, b, Row{}); err == nil || !strings.Contains(err.Error(), "@b") {
		t.Fatalf("unbound @b: err = %v", err)
	}
}

func TestArithmetic(t *testing.T) {
	s := Schema{{Name: "a"}}
	row := Row{Float(10)}
	cases := []struct {
		src  string
		want float64
	}{
		{"a + 2", 12},
		{"a - 2", 8},
		{"a * 2", 20},
		{"a / 4", 2.5},
		{"-a", -10},
	}
	for _, tc := range cases {
		v := evalExpr(t, tc.src, s, row, nil)
		f, err := v.AsFloat()
		if err != nil || f != tc.want {
			t.Fatalf("%s = %v, want %g", tc.src, v, tc.want)
		}
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	v := evalExpr(t, "1 / 0", Schema{}, Row{}, nil)
	if !v.IsNull() {
		t.Fatalf("1/0 = %v, want NULL", v)
	}
}

func TestNullPropagation(t *testing.T) {
	for _, src := range []string{
		"NULL + 1",
		"NULL < 1",
		"NULL AND 1 = 1",
		"-NULL",
		"NOT NULL",
	} {
		if v := evalExpr(t, src, Schema{}, Row{}, nil); !v.IsNull() {
			t.Fatalf("%s = %v, want NULL", src, v)
		}
	}
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		op   string
		want bool
	}{
		{"<", true}, {"<=", true}, {">", false}, {">=", false}, {"=", false}, {"<>", true},
	}
	for _, tc := range cases {
		src := "1 " + tc.op + " 2"
		v := evalExpr(t, src, Schema{}, Row{}, nil)
		b, err := v.AsBool()
		if err != nil || b != tc.want {
			t.Fatalf("%s = %v, want %v", src, v, tc.want)
		}
	}
	if v := evalExpr(t, "'a' = 'a'", Schema{}, Row{}, nil); !v.Equal(Bool(true)) {
		t.Fatal("string equality broken")
	}
}

// No SQL text is a boolean literal; 1 = 1 and 1 = 2 stand for TRUE and
// FALSE.
func TestLogic(t *testing.T) {
	if v := evalExpr(t, "1 = 1 AND 1 = 2", Schema{}, Row{}, nil); !v.Equal(Bool(false)) {
		t.Fatal("AND broken")
	}
	if v := evalExpr(t, "1 = 1 OR 1 = 2", Schema{}, Row{}, nil); !v.Equal(Bool(true)) {
		t.Fatal("OR broken")
	}
	if v := evalExpr(t, "NOT 1 = 2", Schema{}, Row{}, nil); !v.Equal(Bool(true)) {
		t.Fatal("NOT broken")
	}
}

// threeValued is SQL's AND/OR truth table over TRUE, FALSE and NULL:
// want[op][i][j] is (vals[i] op vals[j]).
var threeValued = struct {
	vals []Value
	want map[string][3][3]Value
}{
	vals: []Value{Bool(true), Bool(false), Null()},
	want: map[string][3][3]Value{
		"AND": {
			{Bool(true), Bool(false), Null()},
			{Bool(false), Bool(false), Bool(false)},
			{Null(), Bool(false), Null()},
		},
		"OR": {
			{Bool(true), Bool(true), Bool(true)},
			{Bool(true), Bool(false), Null()},
			{Bool(true), Null(), Null()},
		},
	},
}

// TestThreeValuedLogic checks AND and OR against SQL's truth table in
// either operand order, on uniform operands (evaluated once per
// block) and on per-world lanes (one combination per world): FALSE
// AND NULL is FALSE, TRUE OR NULL is TRUE.
func TestThreeValuedLogic(t *testing.T) {
	vals := threeValued.vals
	s := Schema{{Name: "a"}, {Name: "b"}}
	for op, want := range threeValued.want {
		b := mustBind(t, "a "+op+" b", s, nil)
		for i, a := range vals {
			for j, c := range vals {
				v, err := evalWorld(b, Row{a, c}, nil, 1)
				if err != nil {
					t.Fatal(err)
				}
				if v != want[i][j] {
					t.Errorf("uniform %v %s %v = %v, want %v", a, op, c, v, want[i][j])
				}
			}
		}
		// World 3i+j holds the pair (vals[i], vals[j]).
		ctx := &BlockCtx{}
		ctx.reset(0, 0, 9, nil, nil)
		row := ctx.newRow(2)
		row[0], row[1] = ctx.lanesVec(), ctx.lanesVec()
		for w := 0; w < 9; w++ {
			row[0].setLane(w, vals[w/3])
			row[1].setLane(w, vals[w%3])
		}
		out, err := b.EvalBlock(row, nil, ctx)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 9; w++ {
			if got := out.Lane(w); got != want[w/3][w%3] {
				t.Errorf("lane %v %s %v = %v, want %v", vals[w/3], op, vals[w%3], got, want[w/3][w%3])
			}
		}
	}
	if _, err := evalWorld(mustBind(t, "1 = 2 AND 'x'", Schema{}, nil), Row{}, nil, 1); err == nil {
		t.Error("FALSE AND 'x' evaluated; a non-boolean operand must be an error")
	}
}

// TestWhereNotAndNull checks that WHERE NOT (a > 5 AND NULL) keeps
// the rows where a > 5 is FALSE: FALSE AND NULL is FALSE, and NOT
// FALSE is TRUE. The other rows see NOT NULL and drop.
func TestWhereNotAndNull(t *testing.T) {
	tbl := MustNewTable("a")
	for _, a := range []float64{1, 10, 3} {
		tbl.MustAppend(Row{Float(a)})
	}
	pred := "NOT (a > 5 AND NULL)"
	scan := NewScanPlan("t", tbl)
	out := execute(t, &SelectPlan{Child: scan, Pred: mustBind(t, pred, scan.Schema(), nil), Desc: pred})
	var got []float64
	for _, row := range out.Rows {
		f, _ := row[0].AsFloat()
		got = append(got, f)
	}
	if want := []float64{1, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("WHERE %s kept a = %v, want %v", pred, got, want)
	}
}

// TestUnknownOperator binds hand-built trees: the parser produces no
// other operator, but Bind accepts any tree.
func TestUnknownOperator(t *testing.T) {
	one := &sqlparse.NumberLit{Value: 1}
	if _, err := Bind(&sqlparse.Binary{Op: "%", Left: one, Right: one}, Schema{}, nil); err == nil {
		t.Fatal("unknown binary operator bound")
	}
	if _, err := Bind(&sqlparse.Unary{Op: "+", E: one}, Schema{}, nil); err == nil {
		t.Fatal("unknown unary operator bound")
	}
}

// TestBindRejectsMalformedTrees checks that trees the parser never
// builds bind to errors, not to evaluators that panic: a nil
// expression, anywhere in the tree, and a CASE with no WHEN arm.
func TestBindRejectsMalformedTrees(t *testing.T) {
	for name, e := range map[string]sqlparse.Expr{
		"nil":           nil,
		"nil operand":   &sqlparse.Binary{Op: "+", Left: &sqlparse.NumberLit{Value: 1}},
		"nil argument":  &sqlparse.FuncCall{Name: "ABS", Args: []sqlparse.Expr{nil}},
		"empty CASE":    &sqlparse.CaseExpr{},
		"CASE nil WHEN": &sqlparse.CaseExpr{Whens: []sqlparse.CaseArm{{Then: &sqlparse.NumberLit{Value: 1}}}},
	} {
		if _, err := Bind(e, Schema{}, nil); err == nil {
			t.Errorf("%s: bound", name)
		}
	}
}

func TestCaseExpr(t *testing.T) {
	// Fig. 1's CASE WHEN capacity < demand THEN 1 ELSE 0 END.
	s := Schema{{Name: "capacity"}, {Name: "demand"}}
	e := "CASE WHEN capacity < demand THEN 1 ELSE 0 END"
	if v := evalExpr(t, e, s, Row{Float(5), Float(9)}, nil); !v.Equal(Float(1)) {
		t.Fatal("CASE then-branch broken")
	}
	if v := evalExpr(t, e, s, Row{Float(9), Float(5)}, nil); !v.Equal(Float(0)) {
		t.Fatal("CASE else-branch broken")
	}
	// Missing ELSE yields NULL; NULL condition selects ELSE path.
	if v := evalExpr(t, "CASE WHEN 1 = 2 THEN 1 END", Schema{}, Row{}, nil); !v.IsNull() {
		t.Fatal("CASE without ELSE should yield NULL")
	}
	if v := evalExpr(t, "CASE WHEN NULL THEN 1 ELSE 2 END", Schema{}, Row{}, nil); !v.Equal(Float(2)) {
		t.Fatal("NULL condition should select ELSE")
	}
	// Arms are tried in order: the first that holds wins.
	arms := "CASE WHEN capacity < 0 THEN 1 WHEN capacity < 10 THEN 2 WHEN capacity < 20 THEN 3 END"
	for _, tc := range []struct {
		capacity float64
		want     Value
	}{{-1, Float(1)}, {5, Float(2)}, {15, Float(3)}, {25, Null()}} {
		if v := evalExpr(t, arms, s, Row{Float(tc.capacity), Float(0)}, nil); v != tc.want {
			t.Fatalf("capacity %g: %s = %v, want %v", tc.capacity, arms, v, tc.want)
		}
	}
}

func TestScalarBuiltins(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"ABS(-3)", 3},
		{"SQRT(9)", 3},
		{"POW(2, 10)", 1024},
		{"MINV(2, 5)", 2},
		{"MAXV(2, 5)", 5},
		{"abs(-3)", 3},
		{"Sqrt(9)", 3},
	}
	for _, tc := range cases {
		v := evalExpr(t, tc.src, Schema{}, Row{}, nil)
		f, err := v.AsFloat()
		if err != nil || f != tc.want {
			t.Fatalf("%s = %v, want %g", tc.src, v, tc.want)
		}
	}
	if _, err := Bind(sqlExpr(t, "ABS(1, 2)"), Schema{}, nil); err == nil {
		t.Fatal("builtin arity violation bound")
	}
}

func TestVGCall(t *testing.T) {
	b := mustBind(t, "DemandModel(@week, 52)", Schema{}, testBoxes())
	v, err := evalWorld(b, Row{}, map[string]float64{"week": 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := blackbox.NewDemand().Eval([]float64{10, 52}, rng.New(rng.SampleSeed(5, 0)))
	f, _ := v.AsFloat()
	if f != want {
		t.Fatalf("VG call = %g, want %g", f, want)
	}
}

func TestVGCallErrors(t *testing.T) {
	// Unknown function without registry.
	if _, err := Bind(sqlExpr(t, "Nope()"), Schema{}, nil); err == nil {
		t.Fatal("unknown function bound without registry")
	}
	if _, err := Bind(sqlExpr(t, "Nope()"), Schema{}, testBoxes()); err == nil {
		t.Fatal("unknown function bound")
	}
	// Arity mismatch.
	if _, err := Bind(sqlExpr(t, "DemandModel(1)"), Schema{}, testBoxes()); err == nil {
		t.Fatal("VG arity violation bound")
	}
}

func TestVGCallNullArgSkipsInvocation(t *testing.T) {
	b := mustBind(t, "DemandModel(NULL, 2)", Schema{}, testBoxes())
	ctx := oneWorldCtx(1, nil)
	v, err := evalIn(ctx, b, Row{})
	if err != nil || !v.IsNull() {
		t.Fatalf("NULL arg: %v, %v", v, err)
	}
	// Materializing replays any draw the call made; an untouched
	// stream is exactly a freshly seeded generator.
	ctx.materialize()
	if ctx.Rands[0].State() != rng.New(rng.SampleSeed(1, 0)).State() {
		t.Fatal("NULL-arg call consumed randomness")
	}
}
