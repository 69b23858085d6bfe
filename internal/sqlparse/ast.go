package sqlparse

import (
	"fmt"
	"strings"
)

// Script is a full Jigsaw scenario: parameter declarations, one or
// more SELECT ... INTO statements defining the results distribution,
// and at most one execution statement (OPTIMIZE for batch mode, GRAPH
// for interactive mode).
type Script struct {
	Decls    []ParamDecl
	Selects  []*SelectStmt
	Optimize *OptimizeStmt
	Graph    *GraphStmt
}

// ParamKind discriminates DECLARE PARAMETER forms.
type ParamKind int

const (
	// ParamRange is RANGE lo TO hi STEP BY step.
	ParamRange ParamKind = iota
	// ParamSet is SET (v1, ...).
	ParamSet
	// ParamChain is CHAIN col FROM @driver : @driver+off INITIAL VALUE v.
	ParamChain
)

// ParamDecl is one DECLARE PARAMETER statement.
type ParamDecl struct {
	Name string
	Kind ParamKind

	Lo, Hi, Step float64   // RANGE
	Values       []float64 // SET

	ChainColumn  string  // CHAIN: fed-back results column
	Driver       string  // CHAIN: stepping parameter
	DriverOffset float64 // CHAIN: offset in "@driver : @driver + k"
	Initial      float64 // CHAIN: INITIAL VALUE
}

// SelectStmt is SELECT items [FROM source] [WHERE pred] [INTO name].
type SelectStmt struct {
	Items []SelectItem
	From  *FromClause // nil = FROM-less single-row select
	Where Expr        // nil = no predicate
	Into  string      // "" = anonymous
}

// SelectItem is one output expression with an optional alias; items
// may reference aliases of earlier items (Fig. 1's overload column).
type SelectItem struct {
	Expr  Expr
	Alias string
}

// Name returns the output column name (alias, or a best-effort
// rendering of the expression).
func (s SelectItem) Name() string {
	if s.Alias != "" || s.Expr == nil {
		return s.Alias
	}
	if c, ok := s.Expr.(*ColRef); ok {
		return c.Name
	}
	return s.Expr.String()
}

// FromClause is either a stored table reference or a parenthesized
// subquery (Fig. 5 selects FROM a nested SELECT).
type FromClause struct {
	Table    string
	Subquery *SelectStmt
}

// MetricKind is the cross-world estimator applied to a results column
// (§2.2's interactive-mode metrics).
type MetricKind int

const (
	// MetricExpect is EXPECT col: the expectation across worlds.
	MetricExpect MetricKind = iota
	// MetricStdDev is EXPECT_STDDEV col.
	MetricStdDev
)

// String implements fmt.Stringer.
func (m MetricKind) String() string {
	if m == MetricStdDev {
		return "EXPECT_STDDEV"
	}
	return "EXPECT"
}

// OptimizeStmt is the batch-mode statement of Fig. 1:
//
//	OPTIMIZE SELECT @p1, @p2 FROM results
//	WHERE MAX(EXPECT col) < bound [AND ...]
//	GROUP BY p1, p2
//	FOR MAX @p1, MIN @p2
type OptimizeStmt struct {
	// Params are the projected parameter names.
	Params []string
	// From is the results table name.
	From string
	// Constraints are the WHERE conditions.
	Constraints []Constraint
	// GroupBy lists the grouping parameter names.
	GroupBy []string
	// Goals are the lexicographic optimization goals.
	Goals []Goal
}

// Constraint is OUTER(METRIC col) op bound, e.g. MAX(EXPECT overload) < 0.01.
// OUTER aggregates the per-point metric across the sweep dimension that
// is not grouped (Fig. 1: the max over @current_week of the expected
// overload).
type Constraint struct {
	// Outer is the across-points aggregate: MAX, MIN or AVG.
	Outer string
	// Metric is the cross-world estimator.
	Metric MetricKind
	// Column is the results column the metric applies to.
	Column string
	// Op is one of < <= > >= .
	Op string
	// Bound is the constraint threshold.
	Bound float64
}

// Goal is FOR MAX @p or FOR MIN @p; goals are lexicographic in
// declaration order.
type Goal struct {
	Maximize bool
	Param    string
}

// GraphStmt is the interactive-mode statement of §2.2:
//
//	GRAPH OVER @current_week
//	EXPECT overload WITH bold red, ...
type GraphStmt struct {
	// Over is the X-axis parameter.
	Over string
	// Series are the plotted metrics.
	Series []GraphSeries
}

// GraphSeries is one plotted line.
type GraphSeries struct {
	Metric MetricKind
	Column string
	// Style carries the WITH tokens verbatim (bold, red, y2, ...).
	Style []string
}

// ---------- Expression AST ----------

// Expr is a parsed (unbound) scalar expression.
type Expr interface {
	String() string
	exprNode()
}

// NumberLit is a numeric literal.
type NumberLit struct{ Value float64 }

func (n *NumberLit) exprNode()      {}
func (n *NumberLit) String() string { return fmt.Sprintf("%g", n.Value) }

// StringLit is a string literal.
type StringLit struct{ Value string }

func (s *StringLit) exprNode()      {}
func (s *StringLit) String() string { return "'" + s.Value + "'" }

// ColRef references a column.
type ColRef struct{ Name string }

func (c *ColRef) exprNode()      {}
func (c *ColRef) String() string { return c.Name }

// ParamRef references an @parameter.
type ParamRef struct{ Name string }

func (p *ParamRef) exprNode()      {}
func (p *ParamRef) String() string { return "@" + p.Name }

// Binary is a binary operation.
type Binary struct {
	Op          string
	Left, Right Expr
}

func (b *Binary) exprNode() {}
func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.Left, b.Op, b.Right)
}

// Unary is -expr or NOT expr.
type Unary struct {
	Op string // "-" or "NOT"
	E  Expr
}

func (u *Unary) exprNode() {}
func (u *Unary) String() string {
	if u.Op == "NOT" {
		return fmt.Sprintf("(NOT %s)", u.E)
	}
	return fmt.Sprintf("(-%s)", u.E)
}

// CaseExpr is CASE WHEN c THEN t [WHEN ...]* [ELSE e] END. Multiple
// arms are stored in order.
type CaseExpr struct {
	Whens []CaseArm
	Else  Expr // nil = NULL
}

// CaseArm is one WHEN/THEN pair.
type CaseArm struct{ When, Then Expr }

func (c *CaseExpr) exprNode() {}
func (c *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, arm := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", arm.When, arm.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// FuncCall invokes a VG-function or scalar builtin.
type FuncCall struct {
	Name string
	Args []Expr
}

func (f *FuncCall) exprNode() {}
func (f *FuncCall) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(parts, ", "))
}

// Builtins are the language's deterministic scalar functions — by
// canonical (upper-case) name, their arity. Both engines implement
// every one; any other called name is a VG-function.
var Builtins = map[string]int{"ABS": 1, "SQRT": 1, "POW": 2, "MINV": 2, "MAXV": 2}

// Builtin resolves a called name, in any letter case, to its builtin's
// canonical name and arity; ok is false for a name that is not one.
func Builtin(name string) (canonical string, arity int, ok bool) {
	canonical = strings.ToUpper(name)
	arity, ok = Builtins[canonical]
	return canonical, arity, ok
}
