package sqlparse

import (
	"strings"
	"testing"
)

// parseExpr parses a single expression: the expression grammar of
// Parse, on its own, for the parser and round-trip tests.
func parseExpr(src string) (Expr, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("trailing input after expression: %s", p.peek())
	}
	return e, nil
}

// figure1Query is the paper's Fig. 1 verbatim (modulo whitespace).
const figure1Query = `
-- DEFINITION --
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @feature_release AS SET (12,36,44);
SELECT DemandModel(@current_week, @feature_release)
         AS demand,
       CapacityModel(@current_week, @purchase1, @purchase2)
         AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END
         AS overload
INTO results;
-- BATCH MODE --
OPTIMIZE SELECT @feature_release, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.01
GROUP BY feature_release, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2
`

// figure5Query is the paper's Fig. 5 Markov declaration.
const figure5Query = `
DECLARE PARAMETER @current_week
    AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @release_week
    AS CHAIN release_week
    FROM @current_week : @current_week - 1
    INITIAL VALUE 52;
SELECT ReleaseWeekModel(demand) AS release_week, demand
FROM (SELECT DemandModel(@current_week, @release_week)
      AS demand)
INTO results
`

// graphQuery is the §2.2 interactive-mode statement.
const graphQuery = `
GRAPH OVER @current_week
EXPECT overload WITH bold red,
EXPECT capacity WITH blue y2,
EXPECT_STDDEV demand WITH orange y2;
`

func TestParseFigure1(t *testing.T) {
	s, err := Parse(figure1Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Decls) != 4 {
		t.Fatalf("decls = %d", len(s.Decls))
	}
	cw := s.Decls[0]
	if cw.Name != "current_week" || cw.Kind != ParamRange || cw.Lo != 0 || cw.Hi != 52 || cw.Step != 1 {
		t.Fatalf("current_week decl = %+v", cw)
	}
	fr := s.Decls[3]
	if fr.Kind != ParamSet || len(fr.Values) != 3 || fr.Values[1] != 36 {
		t.Fatalf("feature_release decl = %+v", fr)
	}
	if len(s.Selects) != 1 {
		t.Fatalf("selects = %d", len(s.Selects))
	}
	sel := s.Selects[0]
	if sel.Into != "results" || len(sel.Items) != 3 {
		t.Fatalf("select = %+v", sel)
	}
	if sel.Items[0].Name() != "demand" || sel.Items[2].Name() != "overload" {
		t.Fatal("aliases broken")
	}
	if _, ok := sel.Items[2].Expr.(*CaseExpr); !ok {
		t.Fatalf("overload expr = %T", sel.Items[2].Expr)
	}
	o := s.Optimize
	if o == nil {
		t.Fatal("no OPTIMIZE parsed")
	}
	if len(o.Params) != 3 || o.Params[0] != "feature_release" {
		t.Fatalf("optimize params = %v", o.Params)
	}
	if o.From != "results" {
		t.Fatalf("optimize from = %q", o.From)
	}
	if len(o.Constraints) != 1 {
		t.Fatalf("constraints = %+v", o.Constraints)
	}
	c := o.Constraints[0]
	if c.Outer != "MAX" || c.Metric != MetricExpect || c.Column != "overload" || c.Op != "<" || c.Bound != 0.01 {
		t.Fatalf("constraint = %+v", c)
	}
	if len(o.GroupBy) != 3 || o.GroupBy[2] != "purchase2" {
		t.Fatalf("group by = %v", o.GroupBy)
	}
	if len(o.Goals) != 2 || !o.Goals[0].Maximize || o.Goals[0].Param != "purchase1" {
		t.Fatalf("goals = %+v", o.Goals)
	}
}

func TestParseFigure5(t *testing.T) {
	s, err := Parse(figure5Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Decls) != 2 {
		t.Fatalf("decls = %d", len(s.Decls))
	}
	ch := s.Decls[1]
	if ch.Kind != ParamChain || ch.ChainColumn != "release_week" ||
		ch.Driver != "current_week" || ch.DriverOffset != -1 || ch.Initial != 52 {
		t.Fatalf("chain decl = %+v", ch)
	}
	sel := s.Selects[0]
	if sel.From == nil || sel.From.Subquery == nil {
		t.Fatal("subquery FROM not parsed")
	}
	sub := sel.From.Subquery
	if len(sub.Items) != 1 || sub.Items[0].Name() != "demand" {
		t.Fatalf("subquery = %+v", sub)
	}
	if sel.Items[1].Name() != "demand" {
		t.Fatal("bare column reference broken")
	}
}

func TestParseGraph(t *testing.T) {
	s, err := Parse(graphQuery)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Graph
	if g == nil || g.Over != "current_week" {
		t.Fatalf("graph = %+v", g)
	}
	if len(g.Series) != 3 {
		t.Fatalf("series = %d", len(g.Series))
	}
	if g.Series[0].Metric != MetricExpect || g.Series[0].Column != "overload" {
		t.Fatalf("series[0] = %+v", g.Series[0])
	}
	if len(g.Series[0].Style) != 2 || g.Series[0].Style[0] != "bold" {
		t.Fatalf("style = %v", g.Series[0].Style)
	}
	if g.Series[2].Metric != MetricStdDev {
		t.Fatal("EXPECT_STDDEV not parsed")
	}
}

func TestParseFullScriptCombination(t *testing.T) {
	s, err := Parse(figure1Query + "\n" + graphQuery)
	if err != nil {
		t.Fatal(err)
	}
	if s.Optimize == nil || s.Graph == nil {
		t.Fatal("combined script lost a statement")
	}
}

func TestExpressionPrecedence(t *testing.T) {
	e, err := parseExpr("1 + 2 * 3 < 10 AND NOT a = b OR c > 0")
	if err != nil {
		t.Fatal(err)
	}
	want := "(((1 + (2 * 3)) < 10) AND (NOT (a = b))) OR ((c > 0))"
	// Normalize: our String always parenthesizes binaries.
	got := e.String()
	if got != "((((1 + (2 * 3)) < 10) AND (NOT (a = b))) OR (c > 0))" {
		t.Fatalf("precedence tree = %s (want shape %s)", got, want)
	}
}

func TestExpressionForms(t *testing.T) {
	for _, src := range []string{
		"-x",
		"-(a + b) * 2",
		"ABS(-3)",
		"f()",
		"f(a, b, c)",
		"CASE WHEN a < b THEN 1 WHEN a = b THEN 0 ELSE -1 END",
		"CASE WHEN x > 0 THEN 'pos' END",
		"@p1 - @p2 / 4",
		"'str' = 'str'",
		"1e-5 + 2.5E+3 + .5",
	} {
		if _, err := parseExpr(src); err != nil {
			t.Fatalf("parseExpr(%q): %v", src, err)
		}
	}
}

func TestNumberLiteralForms(t *testing.T) {
	e, err := parseExpr("1e-5")
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := e.(*NumberLit); !ok || n.Value != 1e-5 {
		t.Fatalf("1e-5 parsed as %v", e)
	}
}

func TestParseErrors(t *testing.T) {
	for name, src := range map[string]string{
		"bad statement":        "FROBNICATE all the things",
		"missing AS":           "DECLARE PARAMETER @x RANGE 0 TO 1 STEP BY 1",
		"bad decl kind":        "DECLARE PARAMETER @x AS CIRCLE 0",
		"range missing step":   "DECLARE PARAMETER @x AS RANGE 0 TO 1",
		"empty set":            "DECLARE PARAMETER @x AS SET ()",
		"chain bad offset ref": "DECLARE PARAMETER @x AS CHAIN c FROM @d : @other - 1 INITIAL VALUE 0",
		"optimize no goals":    "OPTIMIZE SELECT @a FROM r WHERE MAX(EXPECT c) < 1 GROUP BY a",
		"bad constraint outer": "OPTIMIZE SELECT @a FROM r WHERE SUM(EXPECT c) < 1 FOR MAX @a",
		"bad metric":           "OPTIMIZE SELECT @a FROM r WHERE MAX(MEDIAN c) < 1 FOR MAX @a",
		"bad constraint op":    "OPTIMIZE SELECT @a FROM r WHERE MAX(EXPECT c) = 1 FOR MAX @a",
		"graph no series":      "GRAPH OVER @x",
		"case without when":    "SELECT CASE ELSE 1 END",
		"case without end":     "SELECT CASE WHEN 1 THEN 2",
		"unterminated paren":   "SELECT (1 + 2",
		"trailing garbage":     "SELECT 1 FROM t INTO r ^",
		"bare at":              "SELECT @ FROM t",
		"unterminated string":  "SELECT 'abc",
		"double optimize":      "OPTIMIZE SELECT @a FROM r FOR MAX @a OPTIMIZE SELECT @a FROM r FOR MAX @a",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: no error for %q", name, src)
		}
	}
}

func TestParseExprTrailing(t *testing.T) {
	if _, err := parseExpr("1 + 2 extra"); err == nil {
		t.Fatal("trailing input accepted")
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := Lex("SELECT\n  demand")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Fatalf("token 0 at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Fatalf("token 1 at %d:%d", toks[1].Line, toks[1].Col)
	}
}

func TestLexerComments(t *testing.T) {
	toks, err := Lex("-- comment only\nSELECT -- trailing\n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 { // SELECT, 1, EOF
		t.Fatalf("tokens = %v", toks)
	}
}

func TestLexerUnknownRune(t *testing.T) {
	if _, err := Lex("SELECT #"); err == nil {
		t.Fatal("unknown rune accepted")
	}
}

func TestTokenAndKindStrings(t *testing.T) {
	if TokEOF.String() != "EOF" || TokIdent.String() != "identifier" {
		t.Fatal("TokKind strings broken")
	}
	if !strings.Contains(TokKind(9).String(), "9") {
		t.Fatal("unknown TokKind")
	}
	if (Token{Kind: TokEOF}).String() != "end of input" {
		t.Fatal("EOF token string")
	}
	if (Token{Kind: TokIdent, Text: "x"}).String() != `"x"` {
		t.Fatal("token string")
	}
}

func TestASTStrings(t *testing.T) {
	e, err := parseExpr("CASE WHEN a THEN 'x' ELSE f(-1, @p) END")
	if err != nil {
		t.Fatal(err)
	}
	s := e.String()
	for _, frag := range []string{"CASE WHEN a THEN 'x'", "f((-1), @p)", "END"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String %q missing %q", s, frag)
		}
	}
	if MetricExpect.String() != "EXPECT" || MetricStdDev.String() != "EXPECT_STDDEV" {
		t.Fatal("metric strings broken")
	}
}

func TestSelectItemNameFallback(t *testing.T) {
	sel, err := Parse("SELECT demand, 1 + 2")
	if err != nil {
		t.Fatal(err)
	}
	items := sel.Selects[0].Items
	if items[0].Name() != "demand" {
		t.Fatal("bare column name fallback broken")
	}
	if items[1].Name() != "(1 + 2)" {
		t.Fatalf("expression name fallback = %q", items[1].Name())
	}
}

func TestChainPositiveOffset(t *testing.T) {
	s, err := Parse("DECLARE PARAMETER @x AS CHAIN c FROM @d : @d + 2 INITIAL VALUE 5")
	if err != nil {
		t.Fatal(err)
	}
	if s.Decls[0].DriverOffset != 2 {
		t.Fatalf("offset = %g", s.Decls[0].DriverOffset)
	}
}

func TestOptimizeMinGoal(t *testing.T) {
	s, err := Parse("OPTIMIZE SELECT @a FROM r FOR MIN @a")
	if err != nil {
		t.Fatal(err)
	}
	if s.Optimize.Goals[0].Maximize {
		t.Fatal("MIN parsed as MAX")
	}
	if len(s.Optimize.Constraints) != 0 {
		t.Fatal("phantom constraints")
	}
}
