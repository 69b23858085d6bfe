package pdb

import (
	"math"
	"testing"

	"jigsaw/internal/blackbox"
)

// fixtureDB builds a small database with a purchases table.
func fixtureDB(t *testing.T) *DB {
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
	if got := db.TableNames(); len(got) != 1 || got[0] != "purchases" {
		t.Fatalf("TableNames = %v", got)
	}
	if err := db.DropTable("purchases"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("purchases"); err == nil {
		t.Fatal("double drop succeeded")
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
	pred := mustBind(t, BinOp{">", Col{"volume"}, Lit{Float(30)}}, scan.Schema(), db.Env())
	out := execute(t, &SelectPlan{Child: scan, Pred: pred, Desc: "volume > 30"})
	if out.Len() != 2 {
		t.Fatalf("filtered rows = %d", out.Len())
	}
}

func TestProjectPlan(t *testing.T) {
	db := fixtureDB(t)
	scan, _ := db.Scan("purchases")
	proj, err := NewProjectPlan(scan, []NamedBound{
		{Name: "wk", Expr: mustBind(t, Col{"week"}, scan.Schema(), db.Env())},
		{Name: "double_vol", Expr: mustBind(t, BinOp{"*", Col{"volume"}, Lit{Float(2)}}, scan.Schema(), db.Env())},
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
	demand := mustBind(t, Lit{Float(9)}, base.Schema(), db.Env())
	ext1, err := NewExtendPlan(base, []NamedBound{{Name: "demand", Expr: demand}})
	if err != nil {
		t.Fatal(err)
	}
	overload := mustBind(t,
		Case{When: BinOp{"<", Lit{Float(5)}, Col{"demand"}}, Then: Lit{Float(1)}, Else: Lit{Float(0)}},
		ext1.Schema(), db.Env())
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

func TestOrderByAndLimit(t *testing.T) {
	db := fixtureDB(t)
	scan, _ := db.Scan("purchases")
	key := mustBind(t, Col{"volume"}, scan.Schema(), db.Env())
	sorted := execute(t, &OrderByPlan{Child: scan, Key: key})
	if f, _ := sorted.Rows[0][1].AsFloat(); f != 20 {
		t.Fatalf("ascending head = %g", f)
	}
	desc := execute(t, &OrderByPlan{Child: scan, Key: key, Desc: true})
	if f, _ := desc.Rows[0][1].AsFloat(); f != 60 {
		t.Fatalf("descending head = %g", f)
	}
	limited := execute(t, &LimitPlan{Child: &OrderByPlan{Child: scan, Key: key}, N: 2})
	if limited.Len() != 2 {
		t.Fatalf("limit rows = %d", limited.Len())
	}
	over := execute(t, &LimitPlan{Child: scan, N: 99})
	if over.Len() != 3 {
		t.Fatal("limit beyond length broken")
	}
}

func TestJoinPlan(t *testing.T) {
	db := fixtureDB(t)
	regions := MustNewTable("name", "capacity_base")
	regions.MustAppend(Row{Str("east"), Float(100)})
	regions.MustAppend(Row{Str("west"), Float(200)})
	if err := db.CreateTable("regions", regions); err != nil {
		t.Fatal(err)
	}
	left, _ := db.Scan("purchases")
	right, _ := db.Scan("regions")
	pred := mustBind(t, BinOp{"=", Col{"region"}, Col{"name"}},
		left.Schema().Concat(right.Schema()), db.Env())
	join := NewJoinPlan(left, right, pred)
	out := execute(t, join)
	if out.Len() != 3 {
		t.Fatalf("equi-join rows = %d", out.Len())
	}
	cross := NewJoinPlan(left, right, nil)
	if got := execute(t, cross).Len(); got != 6 {
		t.Fatalf("cross join rows = %d", got)
	}
}

func TestGroupPlanKeyedAggregates(t *testing.T) {
	db := fixtureDB(t)
	scan, _ := db.Scan("purchases")
	keys := []NamedBound{{Name: "region", Expr: mustBind(t, Col{"region"}, scan.Schema(), db.Env())}}
	aggs := []AggSpec{
		{Kind: AggSum, Arg: mustBind(t, Col{"volume"}, scan.Schema(), db.Env()), Name: "total"},
		{Kind: AggCount, Arg: nil, Name: "n"},
		{Kind: AggMin, Arg: mustBind(t, Col{"week"}, scan.Schema(), db.Env()), Name: "first_week"},
		{Kind: AggMax, Arg: mustBind(t, Col{"week"}, scan.Schema(), db.Env()), Name: "last_week"},
		{Kind: AggAvg, Arg: mustBind(t, Col{"volume"}, scan.Schema(), db.Env()), Name: "avg_vol"},
	}
	plan, err := NewGroupPlan(scan, keys, aggs)
	if err != nil {
		t.Fatal(err)
	}
	out := execute(t, plan)
	if out.Len() != 2 {
		t.Fatalf("groups = %d", out.Len())
	}
	// Group order is first-appearance: east, then west.
	east := out.Rows[0]
	if s, _ := east[0].Text(); s != "east" {
		t.Fatalf("first group = %v", east[0])
	}
	if f, _ := east[1].AsFloat(); f != 60 {
		t.Fatalf("east total = %g", f)
	}
	if f, _ := east[2].AsFloat(); f != 2 {
		t.Fatalf("east count = %g", f)
	}
	if f, _ := east[3].AsFloat(); f != 10 {
		t.Fatalf("east first week = %g", f)
	}
	if f, _ := east[4].AsFloat(); f != 30 {
		t.Fatalf("east last week = %g", f)
	}
	if f, _ := east[5].AsFloat(); f != 30 {
		t.Fatalf("east avg = %g", f)
	}
}

func TestGroupPlanGlobalOnEmptyInput(t *testing.T) {
	db := fixtureDB(t)
	scan, _ := db.Scan("purchases")
	empty := &SelectPlan{Child: scan,
		Pred: mustBind(t, Lit{Bool(false)}, scan.Schema(), db.Env()), Desc: "false"}
	plan, err := NewGroupPlan(empty, nil, []AggSpec{
		{Kind: AggCount, Name: "n"},
		{Kind: AggSum, Arg: mustBind(t, Col{"volume"}, scan.Schema(), db.Env()), Name: "total"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := execute(t, plan)
	if out.Len() != 1 {
		t.Fatalf("global aggregate rows = %d", out.Len())
	}
	if f, _ := out.Rows[0][0].AsFloat(); f != 0 {
		t.Fatal("COUNT over empty input != 0")
	}
	if !out.Rows[0][1].IsNull() {
		t.Fatal("SUM over empty input should be NULL")
	}
}

func TestGroupPlanValidation(t *testing.T) {
	db := fixtureDB(t)
	scan, _ := db.Scan("purchases")
	if _, err := NewGroupPlan(scan, []NamedBound{{Name: ""}}, nil); err == nil {
		t.Fatal("empty key name accepted")
	}
	if _, err := NewGroupPlan(scan, nil, []AggSpec{{Kind: AggSum, Name: "x"}}); err == nil {
		t.Fatal("SUM without arg accepted")
	}
	if _, err := NewGroupPlan(scan, nil,
		[]AggSpec{{Kind: AggCount, Name: "n"}, {Kind: AggCount, Name: "n"}}); err == nil {
		t.Fatal("duplicate agg name accepted")
	}
}

func TestAggKindParsing(t *testing.T) {
	for name, want := range map[string]AggKind{
		"sum": AggSum, "COUNT": AggCount, "Avg": AggAvg, "MIN": AggMin, "max": AggMax,
	} {
		got, ok := ParseAggKind(name)
		if !ok || got != want {
			t.Fatalf("ParseAggKind(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := ParseAggKind("MEDIAN"); ok {
		t.Fatal("unknown aggregate parsed")
	}
	if AggSum.String() != "SUM" || AggKind(9).String() == "" {
		t.Fatal("AggKind strings broken")
	}
}

func TestNullsSkippedByAggregates(t *testing.T) {
	tbl := MustNewTable("v")
	tbl.MustAppend(Row{Float(10)})
	tbl.MustAppend(Row{Null()})
	tbl.MustAppend(Row{Float(20)})
	scan := NewScanPlan("t", tbl)
	arg := mustBind(t, Col{"v"}, scan.Schema(), nil)
	plan, err := NewGroupPlan(scan, nil, []AggSpec{
		{Kind: AggAvg, Arg: arg, Name: "avg"},
		{Kind: AggCount, Arg: arg, Name: "cnt"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := execute(t, plan)
	if f, _ := out.Rows[0][0].AsFloat(); f != 15 {
		t.Fatalf("avg with NULL = %g, want 15", f)
	}
	if f, _ := out.Rows[0][1].AsFloat(); f != 2 {
		t.Fatalf("count(v) with NULL = %g, want 2", f)
	}
}

func TestOrderByNullsFirst(t *testing.T) {
	tbl := MustNewTable("v")
	tbl.MustAppend(Row{Float(2)})
	tbl.MustAppend(Row{Null()})
	tbl.MustAppend(Row{Float(1)})
	scan := NewScanPlan("t", tbl)
	key := mustBind(t, Col{"v"}, scan.Schema(), nil)
	out := execute(t, &OrderByPlan{Child: scan, Key: key})
	if !out.Rows[0][0].IsNull() {
		t.Fatal("NULL key should sort first")
	}
	if f, _ := out.Rows[1][0].AsFloat(); f != 1 {
		t.Fatal("ascending order broken after NULL")
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
	if math.IsNaN(0) {
		t.Fatal("impossible")
	}
}
