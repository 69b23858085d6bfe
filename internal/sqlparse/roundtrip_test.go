package sqlparse

import (
	"testing"
	"testing/quick"
)

// TestExprStringReparses checks print/parse round-tripping on a corpus
// of expressions: parsing an expression's String() form must yield an
// identical String() (fixed-point after one round).
func TestExprStringReparses(t *testing.T) {
	corpus := []string{
		"1 + 2 * 3",
		"a < b AND NOT c = d OR e > 1",
		"CASE WHEN a < b THEN 1 WHEN a = b THEN 0 ELSE -1 END",
		"DemandModel(@week, @release) * 2 - ABS(x)",
		"-(a + b) / (c - d)",
		"'label' = 'label'",
		"f()",
		"@p1 - @p2 / 4 + g(h(1), 2)",
	}
	for _, src := range corpus {
		e1, err := parseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := e1.String()
		e2, err := parseExpr(printed)
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", printed, src, err)
		}
		if e2.String() != printed {
			t.Fatalf("round trip unstable:\n  src   %q\n  once  %q\n  twice %q", src, printed, e2.String())
		}
	}
}

// TestQuickGeneratedExprRoundTrip builds random expression trees from
// a generator grammar and round-trips them through String/parseExpr.
func TestQuickGeneratedExprRoundTrip(t *testing.T) {
	var build func(rnd uint64, depth int) Expr
	build = func(rnd uint64, depth int) Expr {
		pick := rnd % 7
		next := rnd/7 + 1
		if depth <= 0 {
			pick = rnd % 3
		}
		switch pick {
		case 0:
			return &NumberLit{Value: float64(rnd%100) / 4}
		case 1:
			return &ColRef{Name: string(rune('a' + rnd%4))}
		case 2:
			return &ParamRef{Name: string(rune('p' + rnd%3))}
		case 3:
			ops := []string{"+", "-", "*", "/", "<", "<=", ">", ">=", "=", "<>", "AND", "OR"}
			return &Binary{Op: ops[rnd%uint64(len(ops))],
				Left: build(next, depth-1), Right: build(next*3, depth-1)}
		case 4:
			if rnd%2 == 0 {
				return &Unary{Op: "-", E: build(next, depth-1)}
			}
			return &Unary{Op: "NOT", E: build(next, depth-1)}
		case 5:
			return &CaseExpr{
				Whens: []CaseArm{{When: build(next, depth-1), Then: build(next*5, depth-1)}},
				Else:  build(next*7, depth-1),
			}
		default:
			return &FuncCall{Name: "f", Args: []Expr{build(next, depth-1)}}
		}
	}
	prop := func(rnd uint64) bool {
		e := build(rnd, 3)
		printed := e.String()
		re, err := parseExpr(printed)
		if err != nil {
			t.Logf("unparseable print %q", printed)
			return false
		}
		return re.String() == printed
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestScriptKeywordCaseInsensitive verifies dialect keywords parse in
// any case, as SQL users expect.
func TestScriptKeywordCaseInsensitive(t *testing.T) {
	src := `
	declare parameter @w as range 0 to 10 step by 2;
	select DemandModel(@w, 5) as demand into results;
	optimize select @w from results where max(expect demand) < 100 group by w for max @w`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Decls) != 1 || s.Selects[0].Into != "results" || s.Optimize == nil {
		t.Fatalf("lower-case script misparsed: %+v", s)
	}
}

// TestDeepNestingDoesNotOverflow guards the recursive-descent parser
// against pathological nesting.
func TestDeepNestingDoesNotOverflow(t *testing.T) {
	src := "SELECT "
	for i := 0; i < 500; i++ {
		src += "("
	}
	src += "1"
	for i := 0; i < 500; i++ {
		src += ")"
	}
	if _, err := Parse(src); err != nil {
		t.Fatalf("deep nesting rejected: %v", err)
	}
}

// FuzzParse checks that Parse never panics and that every SELECT
// item's printed expression reparses to the same printed form.
func FuzzParse(f *testing.F) {
	for _, src := range []string{figure1Query, figure5Query, graphQuery, figure1Query + graphQuery} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		script, err := Parse(src)
		if err != nil {
			return
		}
		var check func(sel *SelectStmt)
		check = func(sel *SelectStmt) {
			for _, item := range sel.Items {
				printed := item.Expr.String()
				re, err := parseExpr(printed)
				if err != nil {
					t.Fatalf("reparse %q: %v", printed, err)
				}
				if re.String() != printed {
					t.Fatalf("round trip unstable:\n  once  %q\n  twice %q", printed, re.String())
				}
			}
			if sel.From != nil && sel.From.Subquery != nil {
				check(sel.From.Subquery)
			}
		}
		for _, sel := range script.Selects {
			check(sel)
		}
	})
}
