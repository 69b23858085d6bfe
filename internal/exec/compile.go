// Package exec binds parsed Jigsaw scripts (internal/sqlparse) to the
// execution substrates: the lightweight Monte Carlo engine with
// fingerprint reuse (internal/mc), the PDB wrapper (internal/pdb), and
// the Markov chain evaluator (internal/markov). It corresponds to the
// query-processing pipeline of Fig. 3.
package exec

import (
	"errors"
	"fmt"
	"slices"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
	"jigsaw/internal/sqlparse"
)

// Scenario is a compiled SELECT ... INTO definition: a parameter space
// plus a row evaluator producing all result columns for one sampled
// world. The whole row evaluation is "the stochastic function F" that
// Jigsaw fingerprints (§3); ColumnEval and SweepColumns draw it as an
// mc.PointEval whose outputs are columns.
type Scenario struct {
	// Script is the source AST.
	Script *sqlparse.Script
	// Space enumerates the non-chain parameters.
	Space *param.Space
	// Columns are the result-table column names in SELECT order.
	Columns []string
	// Into is the results table name ("" when anonymous).
	Into string

	// evals computes each column in order into the row vector.
	evals []colEval
	// width is the row vector's length: one slot per column, then a
	// seed-only row's draw block, then the call sites' argument
	// regions, the bound call sites' state regions and the parameters'
	// slots, in the order compilation reaches them.
	width int
	// params are the parameters the row reads, in first-reference
	// order, with their row slots; chainParam is the first of them
	// declared as a CHAIN ("" when the row reads none).
	params     []paramSlot
	chainParam string
	// binds are the bound call sites, in compilation order.
	binds []boundCall
	// draws are a seed-only row's call sites, in evaluation order, and
	// row[drawLo:drawHi] is its draw block, which they partition;
	// unshared names the call site that keeps any other row's draws
	// per point. table holds a seed-only row's draw vectors by seed.
	draws          []drawSite
	drawLo, drawHi int
	unshared       string
	table          *drawTable
}

// drawSite is a seed-only row's call site: its box draws into
// block[lo:hi] of the row's draw block, and the site's colEval applies
// that region to its state region.
type drawSite struct {
	box    blackbox.DrawBox
	lo, hi int
}

// paramSlot is a parameter the row reads and the row slot BindRow
// writes it to.
type paramSlot struct {
	name string
	slot int
}

// boundCall is a call site whose box is a blackbox.PointBox and whose
// arguments read only parameters, constants and builtins, so they are
// fixed once the point is: BindRow evaluates the arguments into the
// site's region row[lo:hi] and binds them into its state region
// row[state:end], and the site's colEval only draws (EvalBound).
type boundCall struct {
	box                blackbox.PointBox
	args               []colEval
	lo, hi, state, end int
}

// colEval is the lightweight engine's compiled expression form: a
// direct float interpreter with no value boxing, table materialization
// or NULL bookkeeping — the "Ruby prototype" analogue of §6.1. v is
// the row vector (see Scenario.width): a column reads earlier columns
// and the bound parameters from it, and a call site writes its
// arguments to its own region, so a row evaluation allocates nothing
// and looks nothing up: v is the caller's (in a sweep, a worker's
// scratch row, bound once per point). Every name is resolved to a
// slot at compile time, so evaluation cannot fail.
type colEval func(v []float64, r *rng.Rand) float64

// CompileScenario compiles the script's SELECT statements against a
// black-box registry. Multiple SELECTs are allowed; the scenario is
// the last one with an INTO (or the last overall), matching how the
// paper's scripts build one results table.
func CompileScenario(script *sqlparse.Script, boxes *blackbox.Registry) (*Scenario, error) {
	if script == nil || len(script.Selects) == 0 {
		return nil, errors.New("exec: script has no SELECT statement")
	}
	sel := script.Selects[len(script.Selects)-1]

	decls := make([]param.Decl, 0, len(script.Decls))
	for _, d := range script.Decls {
		pd, err := convertDecl(d)
		if err != nil {
			return nil, err
		}
		decls = append(decls, pd)
	}
	space, err := param.NewSpace(decls...)
	if err != nil {
		return nil, err
	}
	items, err := scenarioItems(sel, nil)
	if err != nil {
		return nil, err
	}

	s := &Scenario{Script: script, Space: space, Into: sel.Into}
	c := &compiler{space: space, boxes: boxes, slots: map[string]int{}, width: len(items)}
	// A seed-only row's draw block follows the columns; its sites claim
	// their regions in order as compilation reaches them.
	draws := 0
	if draws, c.unshared = c.drawSharing(items); c.unshared == "" {
		c.drawLo, c.drawNext = len(items), len(items)
		c.width += draws
	}
	for i, item := range items {
		name := item.Name()
		ev, err := c.expr(item.Expr)
		if err != nil {
			return nil, fmt.Errorf("exec: column %q: %w", name, err)
		}
		c.slots[name] = i
		s.Columns = append(s.Columns, name)
		s.evals = append(s.evals, ev)
	}
	s.width, s.params, s.chainParam, s.binds = c.width, c.params, c.chainParam, c.binds
	s.draws, s.drawLo, s.drawHi, s.unshared = c.draws, c.drawLo, c.drawNext, c.unshared
	if draws > 0 {
		s.table = newDrawTable(draws)
	}
	return s, nil
}

// drawSharing reports whether the row is seed-only: every model call
// (builtins draw nothing) is a bound call site — its arguments are
// pointOnly — of a blackbox.DrawBox. Then draws is the row's total
// draw count; otherwise why names the first call site, walking the
// items in order and a call before its arguments, that keeps the
// row's draws per point.
func (c *compiler) drawSharing(items []sqlparse.SelectItem) (draws int, why string) {
	for _, item := range items {
		sqlparse.Walk(item.Expr, func(e sqlparse.Expr) {
			call, ok := e.(*sqlparse.FuncCall)
			if !ok || why != "" {
				return
			}
			if _, builtin := scalarBuiltin(call.Name); builtin {
				return
			}
			var box blackbox.Box
			if c.boxes != nil {
				box, _ = c.boxes.Lookup(call.Name)
			}
			_, bindable := box.(blackbox.PointBox)
			db, drawable := box.(blackbox.DrawBox)
			switch { // an unknown name fails compilation after this
			case !pointOnly(call.Args...):
				why = call.Name + ": its arguments vary per sample"
			case !bindable:
				why = call.Name + ": does not bind per point"
			case !drawable:
				why = call.Name + ": draws depend on its arguments"
			default:
				draws += db.Draws()
			}
		})
	}
	if why != "" {
		return 0, why
	}
	return draws, ""
}

// scenarioItems appends stmt's result columns to items in evaluation
// order. A FROM subquery's columns (Fig. 5) come first so outer items
// can reference them; a bare reference to a column already produced,
// under its own name, is a pass-through (Fig. 5 re-selects demand),
// not a new column.
func scenarioItems(stmt *sqlparse.SelectStmt, items []sqlparse.SelectItem) ([]sqlparse.SelectItem, error) {
	if stmt.Where != nil {
		return nil, errors.New("exec: WHERE is not supported in scenario SELECTs " +
			"(filter on the OPTIMIZE constraints or use the PDB engine)")
	}
	if stmt.From != nil {
		if stmt.From.Table != "" {
			return nil, fmt.Errorf("exec: FROM %s requires the PDB engine; "+
				"the lightweight engine evaluates model-only scenarios", stmt.From.Table)
		}
		var err error
		if items, err = scenarioItems(stmt.From.Subquery, items); err != nil {
			return nil, err
		}
	}
	for _, item := range stmt.Items {
		name := item.Name()
		exists := slices.ContainsFunc(items, func(it sqlparse.SelectItem) bool { return it.Name() == name })
		if c, ok := item.Expr.(*sqlparse.ColRef); ok && exists && name == c.Name {
			continue
		}
		if exists {
			return nil, fmt.Errorf("exec: duplicate result column %q", name)
		}
		items = append(items, item)
	}
	return items, nil
}

// convertDecl lowers a parsed declaration into a param.Decl.
func convertDecl(d sqlparse.ParamDecl) (param.Decl, error) {
	switch d.Kind {
	case sqlparse.ParamRange:
		return param.Range(d.Name, d.Lo, d.Hi, d.Step)
	case sqlparse.ParamSet:
		return param.Set(d.Name, d.Values...)
	case sqlparse.ParamChain:
		return param.Chain(d.Name, d.ChainColumn, d.Driver, d.DriverOffset, d.Initial)
	default:
		return param.Decl{}, fmt.Errorf("exec: unknown parameter kind %d", int(d.Kind))
	}
}

// HasColumn reports whether the scenario produces the named column.
func (s *Scenario) HasColumn(name string) bool {
	return slices.Contains(s.Columns, name)
}

// Chains returns the CHAIN declarations.
func (s *Scenario) Chains() []param.Decl { return s.Space.Chains() }

// RowLen is the length of the row vector: one slot per column, in
// Columns order, then the call sites' argument regions, the bound call
// sites' state regions and the parameters' slots.
func (s *Scenario) RowLen() int { return s.width }

// BindRow writes p's value of every parameter the row reads into its
// slot of row (len(row) == RowLen()), then binds each bound call site:
// it evaluates the site's arguments from those slots and has the box
// write its state region. It draws nothing. A sweep binds a point
// once, then calls FillRow once per sample on the same row. It panics
// when p does not bind one of the parameters: every point a Space or
// ScenarioChain builds binds the declared parameters, and a sweep
// returns the panic as an error naming the point.
func (s *Scenario) BindRow(p param.Point, row []float64) {
	for _, ps := range s.params {
		v, ok := p[ps.name]
		if !ok {
			panic(fmt.Sprintf("exec: point %v does not bind @%s", p, ps.name))
		}
		row[ps.slot] = v
	}
	for _, b := range s.binds {
		buf := row[b.lo:b.hi]
		for i, a := range b.args {
			// A bound site's arguments draw nothing (pointOnly), so
			// they need no generator.
			buf[i] = a(row, nil)
		}
		b.box.Bind(buf, row[b.state:b.end])
	}
}

// FillRow evaluates one world of the whole scenario into a row that
// BindRow has bound; column i lands in row[i]. It reads only the
// parameter slots and state regions BindRow wrote and the slots it
// writes itself, and allocates nothing. A seed-only row first draws
// its draw block, then evaluates its columns, which draw nothing;
// any other row draws as its columns reach each model call. A sweep
// draws each sampled row once for all of its columns (SweepColumns).
func (s *Scenario) FillRow(r *rng.Rand, row []float64) {
	s.drawRow(r, row[s.drawLo:s.drawHi])
	s.applyRow(row, r)
}

// drawRow fills a seed-only row's draw block from r, each site's
// region in evaluation order, so the stream (the polar method's cached
// variate included) runs from one site's draws into the next as the
// sites' EvalBound calls would. It draws nothing for any other row.
func (s *Scenario) drawRow(r *rng.Rand, block []float64) {
	for _, d := range s.draws {
		d.box.Draw(r, block[d.lo:d.hi])
	}
}

// applyRow evaluates the columns into row in order.
func (s *Scenario) applyRow(row []float64, r *rng.Rand) {
	for i, ev := range s.evals {
		row[i] = ev(row, r)
	}
}

// SharesDraws reports whether the row is seed-only: every model call
// is a bound call site of a blackbox.DrawBox, so a sample's draws
// depend on its seed alone, and ColumnEval and SweepColumns draw each
// seed's variates once for every point. When they are not shared, why
// names the first call site that keeps them per point.
func (s *Scenario) SharesDraws() (shared bool, why string) {
	return s.unshared == "", s.unshared
}

// column returns the row slot of a column a sweep can evaluate at a
// plain parameter point. A row that reads a CHAIN parameter has no
// value there; NewScenarioChain evaluates it.
func (s *Scenario) column(name string) (int, error) {
	idx := slices.Index(s.Columns, name)
	if idx < 0 {
		return 0, fmt.Errorf("exec: no result column %q (have %v)", name, s.Columns)
	}
	if s.chainParam != "" {
		return 0, fmt.Errorf("exec: column %q reads CHAIN parameter @%s; use NewScenarioChain",
			name, s.chainParam)
	}
	return idx, nil
}

// ColumnEval returns an mc.PointEval producing the named column: the
// one-column projection of FillRow. Every sample evaluates the full
// row (one world of the whole scenario) and keeps one slot — the
// simulation is a single stochastic function; columns are views of
// it. Sweeps of several columns share rows instead (SweepColumns).
func (s *Scenario) ColumnEval(name string) (mc.PointEval, error) {
	slot, err := s.column(name)
	if err != nil {
		return nil, err
	}
	return &columns{s: s, slots: []int{slot}}, nil
}

// columns is a scenario row as an mc.PointEval whose output c is row
// slot slots[c]: the binding is a row BindRow has bound, and each
// sample fills it in place. A seed-only row copies the sample's draw
// vector from the scenario's table into its draw block, drawing it
// first from the lent generator if the table lacks it; any other row
// reseeds the lent generator and draws the row through FillRow.
type columns struct {
	s     *Scenario
	slots []int
}

// BindPoint implements mc.PointEval.
func (c *columns) BindPoint(p param.Point, buf []float64) []float64 {
	if cap(buf) < c.s.width {
		buf = make([]float64, c.s.width)
	}
	buf = buf[:c.s.width]
	c.s.BindRow(p, buf)
	return buf
}

// EvalBlockBound implements mc.PointEval. A sample writes only the
// slots BindRow leaves alone, so the binding survives the block.
func (c *columns) EvalBlockBound(row []float64, outs [][]float64, seeds []uint64, r *rng.Rand) {
	s, t := c.s, c.s.table
	var snap *drawSnap
	if t != nil {
		snap = t.snap.Load()
	}
	block := row[s.drawLo:s.drawHi]
	for j, seed := range seeds {
		if t == nil {
			r.Seed(seed)
			s.FillRow(r, row)
		} else {
			d := snap.find(seed, t.width)
			if d == nil {
				snap = t.fill(s, seeds[j:], r)
				d = snap.find(seed, t.width)
			}
			if d != nil {
				copy(block, d)
			} else { // the table is full
				r.Seed(seed)
				s.drawRow(r, block)
			}
			// A seed-only row's columns draw nothing.
			s.applyRow(row, nil)
		}
		for i, out := range outs {
			if out != nil {
				out[j] = row[c.slots[i]]
			}
		}
	}
}

// compiler lowers one scenario's expressions to colEvals: it resolves
// every column, parameter and function name and lays out the row
// vector.
type compiler struct {
	space *param.Space
	boxes *blackbox.Registry
	// slots maps each compiled column to its row-vector index.
	slots map[string]int
	// width is the row vector's length so far.
	width int
	// params, chainParam, binds, draws, drawLo and unshared become
	// the Scenario's fields; drawNext is the next free slot of the
	// draw block, and its end once compilation is done.
	params           []paramSlot
	chainParam       string
	binds            []boundCall
	draws            []drawSite
	drawLo, drawNext int
	unshared         string
}

// expr lowers a parsed expression to the direct interpreter form.
// Booleans are represented as 0/1 floats.
func (c *compiler) expr(e sqlparse.Expr) (colEval, error) {
	switch n := e.(type) {
	case *sqlparse.NumberLit:
		v := n.Value
		return func([]float64, *rng.Rand) float64 { return v }, nil
	case *sqlparse.StringLit:
		return nil, errors.New("string literals are not numeric")
	case *sqlparse.ColRef:
		idx, ok := c.slots[n.Name]
		if !ok {
			return nil, fmt.Errorf("unknown column %q", n.Name)
		}
		return slotRead(idx), nil
	case *sqlparse.ParamRef:
		return c.param(n.Name)
	case *sqlparse.Unary:
		inner, err := c.expr(n.E)
		if err != nil {
			return nil, err
		}
		if n.Op == "NOT" {
			return func(v []float64, r *rng.Rand) float64 {
				return b2f(inner(v, r) == 0)
			}, nil
		}
		return func(v []float64, r *rng.Rand) float64 {
			return -inner(v, r)
		}, nil
	case *sqlparse.Binary:
		return c.binary(n)
	case *sqlparse.CaseExpr:
		return c.caseExpr(n)
	case *sqlparse.FuncCall:
		return c.call(n)
	default:
		return nil, fmt.Errorf("unsupported expression %T", e)
	}
}

// param resolves a parameter reference against the declarations to
// its row slot.
func (c *compiler) param(name string) (colEval, error) {
	d, ok := c.space.Decl(name)
	if !ok {
		return nil, fmt.Errorf("undeclared parameter @%s", name)
	}
	if d.Kind == param.KindChain && c.chainParam == "" {
		c.chainParam = name
	}
	i := slices.IndexFunc(c.params, func(ps paramSlot) bool { return ps.name == name })
	if i < 0 {
		// The parameter's first reference claims the next free slot;
		// BindRow fills it once per point.
		i = len(c.params)
		c.params = append(c.params, paramSlot{name: name, slot: c.width})
		c.width++
	}
	return slotRead(c.params[i].slot), nil
}

// slotRead reads row slot idx: a column computed earlier in the row,
// or a parameter BindRow wrote.
func slotRead(idx int) colEval {
	return func(v []float64, _ *rng.Rand) float64 { return v[idx] }
}

func (c *compiler) binary(n *sqlparse.Binary) (colEval, error) {
	l, err := c.expr(n.Left)
	if err != nil {
		return nil, err
	}
	r, err := c.expr(n.Right)
	if err != nil {
		return nil, err
	}
	var op func(a, b float64) float64
	switch n.Op {
	case "+":
		op = func(a, b float64) float64 { return a + b }
	case "-":
		op = func(a, b float64) float64 { return a - b }
	case "*":
		op = func(a, b float64) float64 { return a * b }
	case "/":
		op = func(a, b float64) float64 { return a / b }
	case "<":
		op = func(a, b float64) float64 { return b2f(a < b) }
	case "<=":
		op = func(a, b float64) float64 { return b2f(a <= b) }
	case ">":
		op = func(a, b float64) float64 { return b2f(a > b) }
	case ">=":
		op = func(a, b float64) float64 { return b2f(a >= b) }
	case "=":
		op = func(a, b float64) float64 { return b2f(a == b) }
	case "<>":
		op = func(a, b float64) float64 { return b2f(a != b) }
	case "AND":
		op = func(a, b float64) float64 { return b2f(a != 0 && b != 0) }
	case "OR":
		op = func(a, b float64) float64 { return b2f(a != 0 || b != 0) }
	default:
		return nil, fmt.Errorf("unsupported operator %q", n.Op)
	}
	return func(v []float64, rr *rng.Rand) float64 {
		a := l(v, rr)
		return op(a, r(v, rr))
	}, nil
}

// caseExpr compiles all arms. Arms are evaluated in order, the ELSE
// arm last; note that unlike SQL's lazy CASE, *model calls inside
// untaken arms, ELSE included, are still evaluated* so the generator
// stream advances identically on every code path — the fixed
// stream-consumption discipline that keeps fingerprints comparable
// across parameter values (§3.1). Scenario authors pay a little wasted
// work for deterministic alignment.
func (c *compiler) caseExpr(n *sqlparse.CaseExpr) (colEval, error) {
	type arm struct{ when, then colEval }
	arms := make([]arm, 0, len(n.Whens))
	for _, a := range n.Whens {
		w, err := c.expr(a.When)
		if err != nil {
			return nil, err
		}
		t, err := c.expr(a.Then)
		if err != nil {
			return nil, err
		}
		arms = append(arms, arm{w, t})
	}
	var elseEv colEval
	if n.Else != nil {
		var err error
		if elseEv, err = c.expr(n.Else); err != nil {
			return nil, err
		}
	}
	return func(v []float64, r *rng.Rand) float64 {
		chosen := false
		result := 0.0
		for _, a := range arms {
			cond := a.when(v, r)
			then := a.then(v, r)
			if !chosen && cond != 0 {
				chosen = true
				result = then
			}
		}
		if elseEv != nil {
			if e := elseEv(v, r); !chosen {
				result = e
			}
		}
		return result
	}, nil
}

// call compiles a builtin or black-box call. The call site owns a
// fixed region of the row vector for its arguments; nested calls get
// their own regions, so evaluating an argument never overwrites
// another. A call to a blackbox.PointBox whose arguments are pointOnly
// is a bound call site: it also owns a state region, BindRow binds it
// once per point, and a sample only draws from it.
func (c *compiler) call(n *sqlparse.FuncCall) (colEval, error) {
	if n.Name == "NULL" {
		return nil, errors.New("NULL is not supported by the lightweight engine")
	}
	box, ok := scalarBuiltin(n.Name)
	if !ok {
		if c.boxes == nil {
			return nil, fmt.Errorf("unknown function %q (no registry)", n.Name)
		}
		var err error
		if box, err = c.boxes.Lookup(n.Name); err != nil {
			return nil, err
		}
	}
	if box.Arity() != len(n.Args) {
		return nil, fmt.Errorf("%s expects %d args, got %d", n.Name, box.Arity(), len(n.Args))
	}
	lo := c.width
	hi := lo + len(n.Args)
	c.width = hi
	args := make([]colEval, len(n.Args))
	for i, a := range n.Args {
		ev, err := c.expr(a)
		if err != nil {
			return nil, err
		}
		args[i] = ev
	}
	if pb, ok := box.(blackbox.PointBox); ok && pointOnly(n.Args...) {
		state := c.width
		end := state + pb.BoundLen()
		c.width = end
		c.binds = append(c.binds, boundCall{box: pb, args: args, lo: lo, hi: hi, state: state, end: end})
		if c.unshared == "" {
			// Seed-only: drawRow fills the site's draw region first.
			db := pb.(blackbox.DrawBox)
			dlo, dhi := c.drawNext, c.drawNext+db.Draws()
			c.drawNext = dhi
			c.draws = append(c.draws, drawSite{box: db, lo: dlo - c.drawLo, hi: dhi - c.drawLo})
			return func(v []float64, _ *rng.Rand) float64 {
				return db.Apply(v[state:end], v[dlo:dhi])
			}, nil
		}
		return func(v []float64, r *rng.Rand) float64 {
			return pb.EvalBound(v[state:end], r)
		}, nil
	}
	return func(v []float64, r *rng.Rand) float64 {
		buf := v[lo:hi]
		for i, a := range args {
			buf[i] = a(v, r)
		}
		return box.Eval(buf, r)
	}, nil
}

// pointOnly reports whether every expression reads only parameters,
// constants and builtins: its value is fixed once the point is, and
// evaluating it draws nothing. A column reference or a model call makes
// it per-sample.
func pointOnly(es ...sqlparse.Expr) bool {
	for _, e := range es {
		var ok bool
		switch n := e.(type) {
		case *sqlparse.NumberLit, *sqlparse.ParamRef:
			ok = true
		case *sqlparse.Unary:
			ok = pointOnly(n.E)
		case *sqlparse.Binary:
			ok = pointOnly(n.Left, n.Right)
		case *sqlparse.CaseExpr:
			ok = n.Else == nil || pointOnly(n.Else)
			for _, a := range n.Whens {
				ok = ok && pointOnly(a.When, a.Then)
			}
		case *sqlparse.FuncCall:
			_, builtin := scalarBuiltin(n.Name)
			ok = builtin && pointOnly(n.Args...)
		}
		if !ok {
			return false
		}
	}
	return true
}

// scalarBuiltin returns the deterministic builtin of that name as a
// box; builtins draw nothing from the generator.
func scalarBuiltin(name string) (blackbox.Box, bool) {
	switch name {
	case "ABS", "abs":
		return builtin(name, 1, func(a []float64) float64 {
			if a[0] < 0 {
				return -a[0]
			}
			return a[0]
		}), true
	case "MINV", "minv":
		return builtin(name, 2, func(a []float64) float64 {
			if a[0] < a[1] {
				return a[0]
			}
			return a[1]
		}), true
	case "MAXV", "maxv":
		return builtin(name, 2, func(a []float64) float64 {
			if a[0] > a[1] {
				return a[0]
			}
			return a[1]
		}), true
	default:
		return nil, false
	}
}

func builtin(name string, arity int, fn func([]float64) float64) blackbox.Box {
	return blackbox.Func{FuncName: name, NArgs: arity,
		Fn: func(a []float64, _ *rng.Rand) float64 { return fn(a) }}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
