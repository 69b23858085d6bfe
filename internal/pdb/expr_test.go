package pdb

import (
	"math"
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
