package pdb

import (
	"testing"

	"jigsaw/internal/sqlparse"
)

// FuzzBindMatchesOracle binds fuzzed expression text over a small
// table and requires RunDistribution to agree with the per-world
// oracle at block sizes {1, 7, 256} × workers {1, 2} × chunk sizes
// {1, 2, rowsPerChunk}: both fail, or both succeed with bit-identical
// cells. The table holds a VG column (v), a bool that varies by world
// (b), a column that is NULL in some worlds (n, through CASE), a
// string column (region) and the stored floats week and volume. Its
// three rows run in chunks unless the fuzzed column draws too. Text
// that does not parse or bind is skipped.
func FuzzBindMatchesOracle(f *testing.F) {
	for _, src := range []string{
		"v + volume", "v - week", "v * b", "v / (week - 10)", "-v", "-n",
		"ABS(n - v)", "SQRT(v - week)", "POW(n, 2)", "MINV(n, v)", "MAXV(v, b)",
		"v < week", "v <= n", "n > 0", "v >= volume", "b = 1", "b <> (n > 0)", "(v > 0) = 1",
		"region = 'east'", "region < 'f'", "b AND n > 0", "n > 0 OR b", "NOT b",
		"NULL", "NULL + v", "n + region", "region * 2", "-region", "ABS(region)",
		"'x'", "CASE WHEN b THEN v ELSE n END", "CASE WHEN n > 1 THEN region END",
		"DemandModel(n, 52)", "DemandModel(v, week) + v",
	} {
		f.Add(src)
	}
	db := fixtureDB(f)
	scan, err := db.Scan("purchases")
	if err != nil {
		f.Fatal(err)
	}
	base := Plan(scan)
	for _, c := range []struct{ name, src string }{
		{"v", "DemandModel(week, 52)"},
		{"b", "v > week"},
		{"n", "CASE WHEN b THEN v - week END"},
	} {
		ext, err := NewExtendPlan(base, []NamedBound{{Name: c.name, Expr: mustBind(f, c.src, base.Schema(), db.Boxes)}})
		if err != nil {
			f.Fatal(err)
		}
		base = ext
	}
	params := map[string]float64{"week": 20}
	f.Fuzz(func(t *testing.T, src string) {
		script, err := sqlparse.Parse("SELECT " + src + " AS e")
		if err != nil || len(script.Selects) != 1 || len(script.Selects[0].Items) == 0 {
			return
		}
		e := script.Selects[0].Items[0].Expr
		b, err := Bind(e, base.Schema(), db.Boxes)
		if err != nil {
			return
		}
		plan, err := NewExtendPlan(base, []NamedBound{{Name: "e", Expr: astBound{BoundExpr: b, expr: e, schema: base.Schema(), boxes: db.Boxes}}})
		if err != nil {
			return
		}
		if b.vgCalls() == 0 && planChunking(plan, 1).size != 1 {
			t.Fatalf("%s draws nothing, yet the plan runs in one pass", src)
		}
		if err := oracleDiff(plan, params, 20, []int{1, 7, 256}, []int{1, 2}, []int{1, 2, 0}); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	})
}
