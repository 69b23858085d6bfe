package pdb

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/rng"
)

// evalExpr binds e against schema and evaluates it on row in one
// world of the block executor.
func evalExpr(t *testing.T, e Expr, s Schema, row Row, params map[string]float64) Value {
	t.Helper()
	b, err := e.Bind(s, testEnv())
	if err != nil {
		t.Fatalf("bind %s: %v", e, err)
	}
	v, err := evalWorld(b, row, params, 1)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

// oneWorldCtx returns a block context holding the single world seeded
// by seed.
func oneWorldCtx(seed uint64, params map[string]float64) *BlockCtx {
	ctx := &BlockCtx{}
	ctx.reset([]uint64{seed}, params, nil)
	return ctx
}

// evalWorld evaluates a bound expression on row in a one-world block
// seeded by seed.
func evalWorld(b BoundExpr, row Row, params map[string]float64, seed uint64) (Value, error) {
	return evalIn(oneWorldCtx(seed, params), b, row)
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

func testEnv() *Env {
	reg := blackbox.NewRegistry()
	reg.MustRegister(blackbox.NewDemand())
	return &Env{Boxes: reg}
}

func TestLiteralAndColumn(t *testing.T) {
	s := Schema{{Name: "a"}, {Name: "b"}}
	row := Row{Float(3), Str("x")}
	if v := evalExpr(t, Lit{Float(7)}, s, row, nil); !v.Equal(Float(7)) {
		t.Fatal("literal broken")
	}
	if v := evalExpr(t, Col{"b"}, s, row, nil); !v.Equal(Str("x")) {
		t.Fatal("column broken")
	}
	if _, err := (Col{"zzz"}).Bind(s, nil); err == nil {
		t.Fatal("missing column bound")
	}
}

func TestParamRef(t *testing.T) {
	v := evalExpr(t, Param{"week"}, Schema{}, Row{}, map[string]float64{"week": 12})
	if !v.Equal(Float(12)) {
		t.Fatalf("param = %v", v)
	}
	b, _ := Param{"missing"}.Bind(Schema{}, nil)
	if _, err := evalWorld(b, Row{}, map[string]float64{}, 1); err == nil {
		t.Fatal("unbound param evaluated")
	}
}

// TestParamReadsBlockParams checks that a bound parameter reads the
// parameters of the block it evaluates in: one bound expression over
// two names, evaluated in one context reset with new values, sees the
// new values, and a name the block does not bind is an error naming it.
func TestParamReadsBlockParams(t *testing.T) {
	b := mustBind(t, BinOp{"-", Param{"a"}, Param{"b"}}, Schema{}, nil)
	ctx := &BlockCtx{}
	for _, params := range []map[string]float64{{"a": 5, "b": 2}, {"a": 1, "b": 4}} {
		ctx.reset([]uint64{1}, params, nil)
		v, err := evalIn(ctx, b, Row{})
		if err != nil {
			t.Fatal(err)
		}
		if want := Float(params["a"] - params["b"]); v != want {
			t.Fatalf("@a - @b with %v = %v, want %v", params, v, want)
		}
	}
	ctx.reset([]uint64{1}, map[string]float64{"a": 1}, nil)
	if _, err := evalIn(ctx, b, Row{}); err == nil || !strings.Contains(err.Error(), "@b") {
		t.Fatalf("unbound @b: err = %v", err)
	}
}

func TestArithmetic(t *testing.T) {
	s := Schema{{Name: "a"}}
	row := Row{Float(10)}
	cases := []struct {
		e    Expr
		want float64
	}{
		{BinOp{"+", Col{"a"}, Lit{Float(2)}}, 12},
		{BinOp{"-", Col{"a"}, Lit{Float(2)}}, 8},
		{BinOp{"*", Col{"a"}, Lit{Float(2)}}, 20},
		{BinOp{"/", Col{"a"}, Lit{Float(4)}}, 2.5},
		{Neg{Col{"a"}}, -10},
	}
	for _, tc := range cases {
		v := evalExpr(t, tc.e, s, row, nil)
		f, err := v.AsFloat()
		if err != nil || f != tc.want {
			t.Fatalf("%s = %v, want %g", tc.e, v, tc.want)
		}
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	v := evalExpr(t, BinOp{"/", Lit{Float(1)}, Lit{Float(0)}}, Schema{}, Row{}, nil)
	if !v.IsNull() {
		t.Fatalf("1/0 = %v, want NULL", v)
	}
}

func TestNullPropagation(t *testing.T) {
	exprs := []Expr{
		BinOp{"+", Lit{Null()}, Lit{Float(1)}},
		BinOp{"<", Lit{Null()}, Lit{Float(1)}},
		BinOp{"AND", Lit{Null()}, Lit{Bool(true)}},
		Neg{Lit{Null()}},
		Not{Lit{Null()}},
	}
	for _, e := range exprs {
		if v := evalExpr(t, e, Schema{}, Row{}, nil); !v.IsNull() {
			t.Fatalf("%s = %v, want NULL", e, v)
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
		e := BinOp{tc.op, Lit{Float(1)}, Lit{Float(2)}}
		v := evalExpr(t, e, Schema{}, Row{}, nil)
		b, err := v.AsBool()
		if err != nil || b != tc.want {
			t.Fatalf("%s = %v, want %v", e, v, tc.want)
		}
	}
	if v := evalExpr(t, BinOp{"=", Lit{Str("a")}, Lit{Str("a")}}, Schema{}, Row{}, nil); !v.Equal(Bool(true)) {
		t.Fatal("string equality broken")
	}
}

func TestLogic(t *testing.T) {
	tt := Lit{Bool(true)}
	ff := Lit{Bool(false)}
	if v := evalExpr(t, BinOp{"AND", tt, ff}, Schema{}, Row{}, nil); !v.Equal(Bool(false)) {
		t.Fatal("AND broken")
	}
	if v := evalExpr(t, BinOp{"OR", tt, ff}, Schema{}, Row{}, nil); !v.Equal(Bool(true)) {
		t.Fatal("OR broken")
	}
	if v := evalExpr(t, Not{ff}, Schema{}, Row{}, nil); !v.Equal(Bool(true)) {
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
		b, err := BinOp{op, Col{"a"}, Col{"b"}}.Bind(s, nil)
		if err != nil {
			t.Fatal(err)
		}
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
		ctx.reset(make([]uint64, 9), nil, nil)
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
	if _, err := evalWorld(mustBind(t, BinOp{"AND", Lit{Bool(false)}, Lit{Str("x")}}, Schema{}, nil), Row{}, nil, 1); err == nil {
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
	pred := Not{BinOp{"AND", BinOp{">", Col{"a"}, Lit{Float(5)}}, Lit{Null()}}}
	scan := NewScanPlan("t", tbl)
	out := execute(t, &SelectPlan{Child: scan, Pred: mustBind(t, pred, scan.Schema(), nil), Desc: pred.String()})
	var got []float64
	for _, row := range out.Rows {
		f, _ := row[0].AsFloat()
		got = append(got, f)
	}
	if want := []float64{1, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("WHERE %s kept a = %v, want %v", pred, got, want)
	}
}

func TestUnknownOperator(t *testing.T) {
	if _, err := (BinOp{"%", Lit{Float(1)}, Lit{Float(1)}}).Bind(Schema{}, nil); err == nil {
		t.Fatal("unknown operator bound")
	}
}

func TestCaseExpr(t *testing.T) {
	// Fig. 1's CASE WHEN capacity < demand THEN 1 ELSE 0 END.
	s := Schema{{Name: "capacity"}, {Name: "demand"}}
	e := Case{
		When: BinOp{"<", Col{"capacity"}, Col{"demand"}},
		Then: Lit{Float(1)},
		Else: Lit{Float(0)},
	}
	if v := evalExpr(t, e, s, Row{Float(5), Float(9)}, nil); !v.Equal(Float(1)) {
		t.Fatal("CASE then-branch broken")
	}
	if v := evalExpr(t, e, s, Row{Float(9), Float(5)}, nil); !v.Equal(Float(0)) {
		t.Fatal("CASE else-branch broken")
	}
	// Missing ELSE yields NULL; NULL condition selects ELSE path.
	noElse := Case{When: Lit{Bool(false)}, Then: Lit{Float(1)}}
	if v := evalExpr(t, noElse, Schema{}, Row{}, nil); !v.IsNull() {
		t.Fatal("CASE without ELSE should yield NULL")
	}
	nullCond := Case{When: Lit{Null()}, Then: Lit{Float(1)}, Else: Lit{Float(2)}}
	if v := evalExpr(t, nullCond, Schema{}, Row{}, nil); !v.Equal(Float(2)) {
		t.Fatal("NULL condition should select ELSE")
	}
}

func TestScalarBuiltins(t *testing.T) {
	cases := []struct {
		e    Expr
		want float64
	}{
		{Call{"ABS", []Expr{Lit{Float(-3)}}}, 3},
		{Call{"SQRT", []Expr{Lit{Float(9)}}}, 3},
		{Call{"POW", []Expr{Lit{Float(2)}, Lit{Float(10)}}}, 1024},
		{Call{"MINV", []Expr{Lit{Float(2)}, Lit{Float(5)}}}, 2},
		{Call{"MAXV", []Expr{Lit{Float(2)}, Lit{Float(5)}}}, 5},
	}
	for _, tc := range cases {
		v := evalExpr(t, tc.e, Schema{}, Row{}, nil)
		f, err := v.AsFloat()
		if err != nil || f != tc.want {
			t.Fatalf("%s = %v, want %g", tc.e, v, tc.want)
		}
	}
	if _, err := (Call{"ABS", []Expr{Lit{Float(1)}, Lit{Float(2)}}}).Bind(Schema{}, nil); err == nil {
		t.Fatal("builtin arity violation bound")
	}
}

func TestVGCall(t *testing.T) {
	e := Call{"DemandModel", []Expr{Param{"week"}, Lit{Float(52)}}}
	b, err := e.Bind(Schema{}, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	v, err := evalWorld(b, Row{}, map[string]float64{"week": 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := blackbox.NewDemand().Eval([]float64{10, 52}, rng.New(5))
	f, _ := v.AsFloat()
	if f != want {
		t.Fatalf("VG call = %g, want %g", f, want)
	}
}

func TestVGCallErrors(t *testing.T) {
	// Unknown function without registry.
	if _, err := (Call{"Nope", nil}).Bind(Schema{}, nil); err == nil {
		t.Fatal("unknown function bound without env")
	}
	if _, err := (Call{"Nope", nil}).Bind(Schema{}, testEnv()); err == nil {
		t.Fatal("unknown function bound")
	}
	// Arity mismatch.
	if _, err := (Call{"DemandModel", []Expr{Lit{Float(1)}}}).Bind(Schema{}, testEnv()); err == nil {
		t.Fatal("VG arity violation bound")
	}
}

func TestVGCallNullArgSkipsInvocation(t *testing.T) {
	b, err := (Call{"DemandModel", []Expr{Lit{Null()}, Lit{Float(2)}}}).Bind(Schema{}, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	ctx := oneWorldCtx(1, nil)
	v, err := evalIn(ctx, b, Row{})
	if err != nil || !v.IsNull() {
		t.Fatalf("NULL arg: %v, %v", v, err)
	}
	// Materializing replays any draw the call made; an untouched
	// stream is exactly a freshly seeded generator.
	ctx.materialize()
	if ctx.Rands[0].State() != rng.New(1).State() {
		t.Fatal("NULL-arg call consumed randomness")
	}
}

func TestExprStrings(t *testing.T) {
	e := Case{
		When: BinOp{"<", Col{"a"}, Param{"p"}},
		Then: Lit{Float(1)},
		Else: Neg{Call{"ABS", []Expr{Col{"a"}}}},
	}
	s := e.String()
	for _, frag := range []string{"CASE WHEN", "(a < @p)", "ABS(a)", "ELSE"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String %q missing %q", s, frag)
		}
	}
	if (Not{Lit{Bool(true)}}).String() != "(NOT true)" {
		t.Fatal("Not string broken")
	}
	if !math.Signbit(-1) { // keep math import honest in minimal builds
		t.Fatal("impossible")
	}
}
