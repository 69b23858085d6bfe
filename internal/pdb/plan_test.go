package pdb

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"jigsaw/internal/blackbox"
)

// fixtureDB builds a small database with a purchases table.
func fixtureDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	db.Boxes.MustRegister(blackbox.NewDemand())
	db.Boxes.MustRegister(blackbox.NewCapacity())
	purchases := MustNewTable("week", "volume", "region")
	purchases.MustAppend(Row{Float(10), Float(40), Str("east")})
	purchases.MustAppend(Row{Float(20), Float(60), Str("west")})
	purchases.MustAppend(Row{Float(30), Float(20), Str("east")})
	if err := db.CreateTable("purchases", purchases); err != nil {
		t.Fatal(err)
	}
	return db
}

// execute runs p through the block executor for a single world and
// returns that world's table.
func execute(t *testing.T, p Plan) *Table {
	t.Helper()
	bt, err := p.ExecuteBlock(oneWorldCtx(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	out := &Table{Schema: bt.Schema}
	for r, row := range bt.Rows {
		if m := bt.rowMask(r); m != nil && !m[0] {
			continue
		}
		tr := make(Row, len(row))
		for c, v := range row {
			tr[c] = v.Lane(0)
		}
		out.Rows = append(out.Rows, tr)
	}
	return out
}

func TestDBTableLifecycle(t *testing.T) {
	db := fixtureDB(t)
	if _, err := db.Table("purchases"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("nope"); err == nil {
		t.Fatal("missing table resolved")
	}
	if err := db.CreateTable("purchases", MustNewTable("x")); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if err := db.CreateTable("", MustNewTable("x")); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := db.CreateTable("niltab", nil); err == nil {
		t.Fatal("nil table accepted")
	}
}

func TestScanAndValues(t *testing.T) {
	db := fixtureDB(t)
	scan, err := db.Scan("purchases")
	if err != nil {
		t.Fatal(err)
	}
	out := execute(t, scan)
	if out.Len() != 3 {
		t.Fatalf("scan rows = %d", out.Len())
	}
	if _, err := db.Scan("missing"); err == nil {
		t.Fatal("scan of missing table succeeded")
	}
	vals := execute(t, ValuesPlan{})
	if vals.Len() != 1 || len(vals.Rows[0]) != 0 {
		t.Fatal("Values should be one empty row")
	}
}

func TestSelectPlan(t *testing.T) {
	db := fixtureDB(t)
	scan, _ := db.Scan("purchases")
	pred := mustBind(t, "volume > 30", scan.Schema(), db.Boxes)
	out := execute(t, &SelectPlan{Child: scan, Pred: pred, Desc: "volume > 30"})
	if out.Len() != 2 {
		t.Fatalf("filtered rows = %d", out.Len())
	}
}

func TestProjectPlan(t *testing.T) {
	db := fixtureDB(t)
	scan, _ := db.Scan("purchases")
	proj, err := NewProjectPlan(scan, []NamedBound{
		{Name: "wk", Expr: mustBind(t, "week", scan.Schema(), db.Boxes)},
		{Name: "double_vol", Expr: mustBind(t, "volume * 2", scan.Schema(), db.Boxes)},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := execute(t, proj)
	if out.Schema.String() != "wk, double_vol" {
		t.Fatalf("schema = %s", out.Schema)
	}
	if f, _ := out.Rows[1][1].AsFloat(); f != 120 {
		t.Fatalf("projected value = %g", f)
	}
	// Duplicate names rejected.
	if _, err := NewProjectPlan(scan, []NamedBound{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Fatal("duplicate projection accepted")
	}
	if _, err := NewProjectPlan(scan, []NamedBound{{Name: ""}}); err == nil {
		t.Fatal("unnamed projection accepted")
	}
}

func TestExtendPlanSeesEarlierOutputs(t *testing.T) {
	// Fig. 1 relies on later SELECT items referencing earlier aliases
	// (overload references capacity and demand).
	db := fixtureDB(t)
	base := ValuesPlan{}
	demand := mustBind(t, "9", base.Schema(), db.Boxes)
	ext1, err := NewExtendPlan(base, []NamedBound{{Name: "demand", Expr: demand}})
	if err != nil {
		t.Fatal(err)
	}
	overload := mustBind(t,
		"CASE WHEN 5 < demand THEN 1 ELSE 0 END",
		ext1.Schema(), db.Boxes)
	ext2, err := NewExtendPlan(ext1, []NamedBound{{Name: "overload", Expr: overload}})
	if err != nil {
		t.Fatal(err)
	}
	out := execute(t, ext2)
	if f, _ := out.Rows[0][1].AsFloat(); f != 1 {
		t.Fatalf("dependent column = %g, want 1", f)
	}
	// Name collisions with the child schema are rejected.
	if _, err := NewExtendPlan(ext1, []NamedBound{{Name: "demand", Expr: demand}}); err == nil {
		t.Fatal("extend collision accepted")
	}
}

func TestAggregatePlanSums(t *testing.T) {
	db := fixtureDB(t)
	scan, _ := db.Scan("purchases")
	aggs := []AggSpec{
		{Arg: mustBind(t, "volume", scan.Schema(), db.Boxes), Name: "total"},
		{Arg: mustBind(t, "1", scan.Schema(), db.Boxes), Name: "n"},
		{Arg: mustBind(t, "week * volume", scan.Schema(), db.Boxes), Name: "weighted"},
	}
	plan, err := NewAggregatePlan(scan, aggs)
	if err != nil {
		t.Fatal(err)
	}
	out := execute(t, plan)
	if out.Len() != 1 {
		t.Fatalf("aggregate rows = %d", out.Len())
	}
	for i, want := range []float64{120, 3, 2200} {
		if f, _ := out.Rows[0][i].AsFloat(); f != want {
			t.Fatalf("%s = %g, want %g", aggs[i].Name, f, want)
		}
	}
}

func TestAggregatePlanOnEmptyInput(t *testing.T) {
	db := fixtureDB(t)
	scan, _ := db.Scan("purchases")
	empty := &SelectPlan{Child: scan,
		Pred: mustBind(t, "1 = 2", scan.Schema(), db.Boxes), Desc: "false"}
	plan, err := NewAggregatePlan(empty, []AggSpec{
		{Arg: mustBind(t, "1", scan.Schema(), db.Boxes), Name: "n"},
		{Arg: mustBind(t, "volume", scan.Schema(), db.Boxes), Name: "total"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := execute(t, plan)
	if out.Len() != 1 {
		t.Fatalf("global aggregate rows = %d", out.Len())
	}
	for i, v := range out.Rows[0] {
		if !v.IsNull() {
			t.Fatalf("%s over empty input = %v, want NULL", plan.Aggs[i].Name, v)
		}
	}
}

func TestAggregatePlanValidation(t *testing.T) {
	db := fixtureDB(t)
	scan, _ := db.Scan("purchases")
	week := mustBind(t, "week", scan.Schema(), db.Boxes)
	if _, err := NewAggregatePlan(scan, []AggSpec{{Arg: week, Name: ""}}); err == nil {
		t.Fatal("unnamed aggregate accepted")
	}
	if _, err := NewAggregatePlan(scan, []AggSpec{{Name: "x"}}); err == nil {
		t.Fatal("SUM without arg accepted")
	}
	if _, err := NewAggregatePlan(scan,
		[]AggSpec{{Arg: week, Name: "n"}, {Arg: week, Name: "n"}}); err == nil {
		t.Fatal("duplicate agg name accepted")
	}
}

func TestNullsSkippedByAggregates(t *testing.T) {
	tbl := MustNewTable("v")
	tbl.MustAppend(Row{Float(10)})
	tbl.MustAppend(Row{Null()})
	tbl.MustAppend(Row{Float(20)})
	scan := NewScanPlan("t", tbl)
	arg := mustBind(t, "v", scan.Schema(), nil)
	plan, err := NewAggregatePlan(scan, []AggSpec{{Arg: arg, Name: "sum"}})
	if err != nil {
		t.Fatal(err)
	}
	out := execute(t, plan)
	if f, _ := out.Rows[0][0].AsFloat(); f != 30 {
		t.Fatalf("sum with NULL = %v, want 30", out.Rows[0][0])
	}
}

// maskedRowsPlan is a fixed three-world input for the aggregate fold:
// v=5 exists in worlds 0 and 1, v=7 only in world 0, and a NULL row
// in every world.
type maskedRowsPlan struct{}

func (maskedRowsPlan) Schema() Schema   { return Schema{{Name: "v"}} }
func (maskedRowsPlan) String() string   { return "MaskedRows" }
func (maskedRowsPlan) shape() planShape { return planShape{rows: 3} }
func (maskedRowsPlan) ExecuteBlock(c *BlockCtx) (*BlockTable, error) {
	bt := &BlockTable{Schema: Schema{{Name: "v"}}}
	for _, r := range []struct {
		v    Value
		mask Mask
	}{
		{Float(5), Mask{true, true, false}},
		{Float(7), Mask{true, false, false}},
		{Null(), nil},
	} {
		row := c.newRow(1)
		row[0] = c.uniformVec(r.v)
		bt.Rows = append(bt.Rows, row)
		bt.Sel = append(bt.Sel, r.mask)
	}
	return bt, nil
}

func TestAggregatePlanFoldsPerWorldMasks(t *testing.T) {
	// Each world folds only the rows its mask keeps: world 2 keeps
	// just the NULL row, so SUM(1) counts it and SUM(v) is NULL there.
	var child maskedRowsPlan
	cases := []struct {
		spec AggSpec
		want []Value
	}{
		{AggSpec{Arg: mustBind(t, "1", child.Schema(), nil), Name: "rows"}, []Value{Float(3), Float(2), Float(1)}},
		{AggSpec{Arg: mustBind(t, "v", child.Schema(), nil), Name: "sum"}, []Value{Float(12), Float(5), Null()}},
	}
	aggs := make([]AggSpec, len(cases))
	for i, tc := range cases {
		aggs[i] = tc.spec
	}
	plan, err := NewAggregatePlan(child, aggs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &BlockCtx{}
	ctx.reset(1, 0, 3, nil, false)
	bt, err := plan.ExecuteBlock(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(bt.Rows) != 1 || bt.rowMask(0) != nil {
		t.Fatalf("aggregate output: %d rows, mask %v; want one unmasked row", len(bt.Rows), bt.rowMask(0))
	}
	for i, tc := range cases {
		for w, want := range tc.want {
			if got := bt.Rows[0][i].Lane(w); !reflect.DeepEqual(got, want) {
				t.Errorf("%s in world %d = %v, want %v", tc.spec.Name, w, got, want)
			}
		}
	}
}

func TestAggregatePlanRejectsNonNumericArg(t *testing.T) {
	db := fixtureDB(t)
	scan, _ := db.Scan("purchases")
	plan, err := NewAggregatePlan(scan, []AggSpec{
		{Arg: mustBind(t, "volume", scan.Schema(), db.Boxes), Name: "n"},
		{Arg: mustBind(t, "region", scan.Schema(), db.Boxes), Name: "total"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = plan.ExecuteBlock(oneWorldCtx(1, nil))
	if err == nil || !strings.Contains(err.Error(), "not numeric") {
		t.Fatalf("SUM over a string column: err = %v, want a not-numeric error", err)
	}
}

func TestPlanStrings(t *testing.T) {
	db := fixtureDB(t)
	scan, _ := db.Scan("purchases")
	if scan.String() != "Scan(purchases)" {
		t.Fatal("scan string")
	}
	if (ValuesPlan{}).String() != "Values()" {
		t.Fatal("values string")
	}
	week := mustBind(t, "week", scan.Schema(), db.Boxes)
	agg, err := NewAggregatePlan(scan, []AggSpec{{Arg: week, Name: "n"}, {Arg: week, Name: "m"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := agg.String(); got != "Aggregate(n, m)" {
		t.Fatalf("aggregate string = %q", got)
	}
	if math.IsNaN(0) {
		t.Fatal("impossible")
	}
}
