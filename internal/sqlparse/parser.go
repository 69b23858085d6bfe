package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse lexes and parses a full Jigsaw script.
func Parse(src string) (*Script, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseScript()
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool { return p.peek().Kind == TokEOF }

// errf formats an error at the current token's position.
func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	return fmt.Errorf("sqlparse:%d:%d: %s", t.Line, t.Col, fmt.Sprintf(format, args...))
}

// keywordIs reports whether t is the given keyword (case-insensitive).
func keywordIs(t Token, kw string) bool {
	return t.Kind == TokIdent && strings.EqualFold(t.Text, kw)
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	if keywordIs(p.peek(), kw) {
		p.next()
		return true
	}
	return false
}

// expectKeyword consumes the keyword or errors.
func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %s", strings.ToUpper(kw), p.peek())
	}
	return nil
}

// acceptSymbol consumes the symbol if present.
func (p *parser) acceptSymbol(sym string) bool {
	t := p.peek()
	if t.Kind == TokSymbol && t.Text == sym {
		p.next()
		return true
	}
	return false
}

// expectSymbol consumes the symbol or errors.
func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errf("expected %q, found %s", sym, p.peek())
	}
	return nil
}

// expectIdent consumes and returns an identifier.
func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errf("expected identifier, found %s", t)
	}
	p.next()
	return t.Text, nil
}

// expectParam consumes and returns an @parameter name.
func (p *parser) expectParam() (string, error) {
	t := p.peek()
	if t.Kind != TokParam {
		return "", p.errf("expected @parameter, found %s", t)
	}
	p.next()
	return t.Text, nil
}

// expectNumber consumes a (possibly negated) numeric literal.
func (p *parser) expectNumber() (float64, error) {
	neg := p.acceptSymbol("-")
	t := p.peek()
	if t.Kind != TokNumber {
		return 0, p.errf("expected number, found %s", t)
	}
	p.next()
	f, err := strconv.ParseFloat(t.Text, 64)
	if err != nil {
		return 0, p.errf("bad number %q: %v", t.Text, err)
	}
	if neg {
		f = -f
	}
	return f, nil
}

// parseScript parses declarations and statements until EOF.
func (p *parser) parseScript() (*Script, error) {
	s := &Script{}
	for !p.atEOF() {
		switch {
		case keywordIs(p.peek(), "DECLARE"):
			d, err := p.parseDeclare()
			if err != nil {
				return nil, err
			}
			s.Decls = append(s.Decls, d)
		case keywordIs(p.peek(), "SELECT"):
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			s.Selects = append(s.Selects, sel)
		case keywordIs(p.peek(), "OPTIMIZE"):
			if s.Optimize != nil {
				return nil, p.errf("multiple OPTIMIZE statements")
			}
			o, err := p.parseOptimize()
			if err != nil {
				return nil, err
			}
			s.Optimize = o
		case keywordIs(p.peek(), "GRAPH"):
			if s.Graph != nil {
				return nil, p.errf("multiple GRAPH statements")
			}
			g, err := p.parseGraph()
			if err != nil {
				return nil, err
			}
			s.Graph = g
		default:
			return nil, p.errf("expected DECLARE, SELECT, OPTIMIZE or GRAPH, found %s", p.peek())
		}
		for p.acceptSymbol(";") {
		}
	}
	return s, nil
}

// parseDeclare parses DECLARE PARAMETER @name AS (RANGE|SET|CHAIN) ...
func (p *parser) parseDeclare() (ParamDecl, error) {
	var d ParamDecl
	if err := p.expectKeyword("DECLARE"); err != nil {
		return d, err
	}
	if err := p.expectKeyword("PARAMETER"); err != nil {
		return d, err
	}
	name, err := p.expectParam()
	if err != nil {
		return d, err
	}
	d.Name = name
	if err := p.expectKeyword("AS"); err != nil {
		return d, err
	}
	switch {
	case p.acceptKeyword("RANGE"):
		d.Kind = ParamRange
		if d.Lo, err = p.expectNumber(); err != nil {
			return d, err
		}
		if err := p.expectKeyword("TO"); err != nil {
			return d, err
		}
		if d.Hi, err = p.expectNumber(); err != nil {
			return d, err
		}
		if err := p.expectKeyword("STEP"); err != nil {
			return d, err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return d, err
		}
		if d.Step, err = p.expectNumber(); err != nil {
			return d, err
		}
	case p.acceptKeyword("SET"):
		d.Kind = ParamSet
		if err := p.expectSymbol("("); err != nil {
			return d, err
		}
		for {
			v, err := p.expectNumber()
			if err != nil {
				return d, err
			}
			d.Values = append(d.Values, v)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return d, err
		}
	case p.acceptKeyword("CHAIN"):
		d.Kind = ParamChain
		if d.ChainColumn, err = p.expectIdent(); err != nil {
			return d, err
		}
		if err := p.expectKeyword("FROM"); err != nil {
			return d, err
		}
		if d.Driver, err = p.expectParam(); err != nil {
			return d, err
		}
		if err := p.expectSymbol(":"); err != nil {
			return d, err
		}
		// "@driver - 1" / "@driver + 2" / "@driver".
		ref, err := p.expectParam()
		if err != nil {
			return d, err
		}
		if ref != d.Driver {
			return d, p.errf("chain offset must reference @%s, found @%s", d.Driver, ref)
		}
		switch {
		case p.acceptSymbol("-"):
			off, err := p.expectNumber()
			if err != nil {
				return d, err
			}
			d.DriverOffset = -off
		case p.acceptSymbol("+"):
			off, err := p.expectNumber()
			if err != nil {
				return d, err
			}
			d.DriverOffset = off
		}
		if err := p.expectKeyword("INITIAL"); err != nil {
			return d, err
		}
		if err := p.expectKeyword("VALUE"); err != nil {
			return d, err
		}
		if d.Initial, err = p.expectNumber(); err != nil {
			return d, err
		}
	default:
		return d, p.errf("expected RANGE, SET or CHAIN, found %s", p.peek())
	}
	return d, nil
}

// parseSelect parses SELECT items [FROM source] [WHERE pred] [INTO name].
func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item := SelectItem{Expr: e}
		if p.acceptKeyword("AS") {
			alias, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			item.Alias = alias
		}
		s.Items = append(s.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		fc := &FromClause{}
		if p.acceptSymbol("(") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			fc.Subquery = sub
		} else {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			fc.Table = name
		}
		s.From = fc
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.acceptKeyword("INTO") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		s.Into = name
	}
	return s, nil
}

// parseOptimize parses the batch-mode statement.
func (p *parser) parseOptimize() (*OptimizeStmt, error) {
	if err := p.expectKeyword("OPTIMIZE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	o := &OptimizeStmt{}
	for {
		name, err := p.expectParam()
		if err != nil {
			return nil, err
		}
		o.Params = append(o.Params, name)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	o.From = from
	if p.acceptKeyword("WHERE") {
		for {
			c, err := p.parseConstraint()
			if err != nil {
				return nil, err
			}
			o.Constraints = append(o.Constraints, c)
			if !p.acceptKeyword("AND") {
				break
			}
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			// GROUP BY accepts bare identifiers (Fig. 1) or @params.
			var name string
			if p.peek().Kind == TokParam {
				name, err = p.expectParam()
			} else {
				name, err = p.expectIdent()
			}
			if err != nil {
				return nil, err
			}
			o.GroupBy = append(o.GroupBy, name)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("FOR"); err != nil {
		return nil, err
	}
	for {
		g := Goal{}
		switch {
		case p.acceptKeyword("MAX"):
			g.Maximize = true
		case p.acceptKeyword("MIN"):
			g.Maximize = false
		default:
			return nil, p.errf("expected MAX or MIN, found %s", p.peek())
		}
		name, err := p.expectParam()
		if err != nil {
			return nil, err
		}
		g.Param = name
		o.Goals = append(o.Goals, g)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return o, nil
}

// parseConstraint parses OUTER(METRIC col) op bound.
func (p *parser) parseConstraint() (Constraint, error) {
	var c Constraint
	outer, err := p.expectIdent()
	if err != nil {
		return c, err
	}
	up := strings.ToUpper(outer)
	if up != "MAX" && up != "MIN" && up != "AVG" {
		return c, p.errf("constraint aggregate must be MAX, MIN or AVG, found %q", outer)
	}
	c.Outer = up
	if err := p.expectSymbol("("); err != nil {
		return c, err
	}
	metric, err := p.expectIdent()
	if err != nil {
		return c, err
	}
	switch strings.ToUpper(metric) {
	case "EXPECT":
		c.Metric = MetricExpect
	case "EXPECT_STDDEV":
		c.Metric = MetricStdDev
	default:
		return c, p.errf("expected EXPECT or EXPECT_STDDEV, found %q", metric)
	}
	if c.Column, err = p.expectIdent(); err != nil {
		return c, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return c, err
	}
	t := p.peek()
	if t.Kind != TokSymbol || (t.Text != "<" && t.Text != "<=" && t.Text != ">" && t.Text != ">=") {
		return c, p.errf("expected comparison operator, found %s", t)
	}
	p.next()
	c.Op = t.Text
	if c.Bound, err = p.expectNumber(); err != nil {
		return c, err
	}
	return c, nil
}

// parseGraph parses GRAPH OVER @p followed by series clauses.
func (p *parser) parseGraph() (*GraphStmt, error) {
	if err := p.expectKeyword("GRAPH"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("OVER"); err != nil {
		return nil, err
	}
	over, err := p.expectParam()
	if err != nil {
		return nil, err
	}
	g := &GraphStmt{Over: over}
	for {
		var series GraphSeries
		switch {
		case p.acceptKeyword("EXPECT_STDDEV"):
			series.Metric = MetricStdDev
		case p.acceptKeyword("EXPECT"):
			series.Metric = MetricExpect
		default:
			return nil, p.errf("expected EXPECT or EXPECT_STDDEV, found %s", p.peek())
		}
		if series.Column, err = p.expectIdent(); err != nil {
			return nil, err
		}
		if p.acceptKeyword("WITH") {
			for p.peek().Kind == TokIdent &&
				!keywordIs(p.peek(), "EXPECT") && !keywordIs(p.peek(), "EXPECT_STDDEV") {
				series.Style = append(series.Style, p.next().Text)
			}
		}
		g.Series = append(g.Series, series)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if len(g.Series) == 0 {
		return nil, p.errf("GRAPH requires at least one series")
	}
	return g, nil
}

// ---------- Expressions (precedence climbing) ----------

// parseExpr parses with the dialect's precedence:
// OR < AND < NOT < comparison < additive < multiplicative < unary.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == TokSymbol {
		switch t.Text {
		case "<", "<=", ">", ">=", "=", "<>":
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: t.Text, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokSymbol && (t.Text == "+" || t.Text == "-") {
			p.next()
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: t.Text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokSymbol && (t.Text == "*" || t.Text == "/") {
			p.next()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: t.Text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad number %q: %v", t.Text, err)
		}
		return &NumberLit{Value: f}, nil
	case TokString:
		p.next()
		return &StringLit{Value: t.Text}, nil
	case TokParam:
		p.next()
		return &ParamRef{Name: t.Text}, nil
	case TokSymbol:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case TokIdent:
		if keywordIs(t, "CASE") {
			return p.parseCase()
		}
		if keywordIs(t, "NULL") {
			p.next()
			return &FuncCall{Name: "NULL"}, nil
		}
		p.next()
		if p.acceptSymbol("(") {
			call := &FuncCall{Name: t.Text}
			if !p.acceptSymbol(")") {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if !p.acceptSymbol(",") {
						break
					}
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		return &ColRef{Name: t.Text}, nil
	}
	return nil, p.errf("unexpected token %s in expression", t)
}

// parseCase parses CASE WHEN ... THEN ... [WHEN ...]* [ELSE ...] END.
func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	for p.acceptKeyword("WHEN") {
		when, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseArm{When: when, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}
