// Package exec binds parsed Jigsaw scripts (internal/sqlparse) to the
// execution substrates: the lightweight Monte Carlo engine with
// fingerprint reuse (internal/mc), the PDB wrapper (internal/pdb), and
// the Markov chain evaluator (internal/markov). It corresponds to the
// query-processing pipeline of Fig. 3.
package exec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

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

	// prog is the row's kernels in evaluation order; column i is lane
	// slot i.
	prog []kernel
	// lanes is the number of lane slots and width the point region's
	// length (see rowLen).
	lanes, width int
	// params are the point slots BindRow writes parameter values to, in
	// compilation order; chainParam is the first parameter the row
	// reads that is declared as a CHAIN ("" when the row reads none).
	params     []paramSlot
	chainParam string
	// binds are the bound call sites, in compilation order.
	binds []boundCall
	// unshared names the call site that keeps the row's draws per
	// point ("" for a seed-only row); table holds a seed-only row's draw
	// vectors by sample id.
	unshared string
	table    *drawTable
}

// paramSlot is a point slot BindRow writes a value row's entry pos
// to. A parameter has a slot per bound call site's bare argument that
// reads it, and one of its own when another expression reads it; a
// reference reads the first, as all hold its value once bound.
type paramSlot struct {
	pos, slot int
}

// boundCall is a call site whose box is a blackbox.PointBox and whose
// arguments read only parameters, constants and builtins, so they are
// fixed once the point is: BindRow writes its bare parameter arguments
// into the site's point region pt[lo:hi] and runs prog, which
// evaluates the other arguments there, then binds them into its state
// region pt[state:end]; the site's kernel only draws.
// When the box is a blackbox.DrawBox too, draw is the box, and in a
// seed-only row the site's draws are d[dlo:dhi] of a sample's draw
// vector d, which the bound sites partition in order.
type boundCall struct {
	box                blackbox.PointBox
	draw               blackbox.DrawBox
	prog               []kernel
	lo, hi, state, end int
	dlo, dhi           int
}

// kernel is the lightweight engine's compiled expression form, one per
// node of the row: it computes its node for every lane of a block, one
// lane per sample, into the node's lane slot — a direct float
// interpreter with no value boxing, table materialization or NULL
// bookkeeping, the "Ruby prototype" analogue of §6.1, run a column at a
// time (the tuple-bundle shape of MCDB and U-relations). Every name is
// resolved to a slot at compile time, so evaluation cannot fail.
type kernel func(b *block)

// block is what a kernel sees of n lanes of a row (see rowLen): lane
// slot s at row[s*stride:][:n] and the point region pt. A call site
// draws lane j from gens[j], or, when gens is nil, applies the draw
// vector draws[ids[j]*w:] of sample ids[j] in a seed-only row's table
// of width w.
type block struct {
	row       []float64
	stride, n int
	pt        []float64
	gens      []rng.Rand
	draws     []float64
	ids       []int
}

// lane returns slot s's n lanes.
func (b *block) lane(s int) []float64 { return b.row[s*b.stride:][:b.n] }

// blockCtx is what a block lends its kernels: its view of the row and
// its lanes' generators. Blocks take one from a pool, so a block
// allocates nothing.
type blockCtx struct {
	b    block
	gens [mc.DefaultBlockSize]rng.Rand
}

var ctxPool = sync.Pool{New: func() any { return new(blockCtx) }}

// release returns l to the pool, dropping its view of the row so the
// pool keeps no binding or table snapshot alive.
func (l *blockCtx) release() {
	l.b = block{}
	ctxPool.Put(l)
}

// rowLen is the length of a row of stride lanes: the lane slots
// (columns first) at stride floats each, then the point region BindRow
// fills — the parameters' slots, the bound call sites' arguments and
// state, the unbound call sites' argument buffers and the slots the
// bound sites' argument expressions compute in.
func (s *Scenario) rowLen(stride int) int { return s.lanes*stride + s.width }

// block returns the first n lanes of a row of stride lanes.
func (s *Scenario) block(row []float64, stride, n int) block {
	return block{row: row, stride: stride, n: n, pt: row[s.lanes*stride:]}
}

// run evaluates the row's kernels over b's lanes.
func (s *Scenario) run(b *block) {
	for _, k := range s.prog {
		k(b)
	}
}

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

	s := &Scenario{Script: script, Space: space, Into: sel.Into, lanes: len(items)}
	c := &compiler{Scenario: s, boxes: boxes, slots: map[string]int{}, into: &s.prog,
		rowDecls: append(space.Decls(), space.Chains()...)}
	for i, item := range items {
		name := item.Name()
		if _, err := c.expr(item.Expr, i); err != nil {
			return nil, fmt.Errorf("exec: column %q: %w", name, err)
		}
		c.slots[name] = i
		s.Columns = append(s.Columns, name)
	}
	if s.unshared == "" && c.drawNext > 0 {
		s.table = newDrawTable(c.drawNext)
	}
	return s, nil
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

// RowLen is the length of a row of one lane: column i lands in row[i]
// (see rowLen for the rest of the layout).
func (s *Scenario) RowLen() int { return s.rowLen(1) }

// BindRow binds the point whose value row is vals into row's point
// region (len(row) == RowLen(), or a binding ColumnEval's BindPoint
// grew). vals holds the point's values in Space.Decls order, then the
// CHAIN parameters' in Space.Chains order; a row that reads no CHAIN
// parameter needs only the former. BindRow writes each value to every
// slot that reads it, then binds each bound call site: it evaluates
// the site's other arguments from those slots and has the box write
// its state region. It draws nothing. A sweep binds a point once, then
// draws blocks of samples on the same row.
func (s *Scenario) BindRow(vals, row []float64) {
	pt := row[len(row)-s.width:]
	for _, ps := range s.params {
		pt[ps.slot] = vals[ps.pos]
	}
	// A bound site's argument kernels compute in the point region, one
	// lane wide, and draw nothing (pointOnly).
	l := ctxPool.Get().(*blockCtx)
	l.b = block{row: pt, stride: 1, n: 1, pt: pt}
	for _, bc := range s.binds {
		for _, k := range bc.prog {
			k(&l.b)
		}
		bc.box.Bind(pt[bc.lo:bc.hi], pt[bc.state:bc.end])
	}
	l.release()
}

// FillRow evaluates one world of the whole scenario into a row of
// RowLen that BindRow has bound, as a block of one lane whose generator
// continues r's stream: column i lands in row[i], and r is left where
// the sample's draws leave it. It allocates nothing. A sweep draws
// blocks of samples through ColumnEval and SweepColumns instead.
func (s *Scenario) FillRow(r *rng.Rand, row []float64) {
	l := ctxPool.Get().(*blockCtx)
	l.gens[0] = *r
	l.b = s.block(row, 1, 1)
	l.b.gens = l.gens[:1]
	s.run(&l.b)
	*r = l.gens[0]
	l.release()
}

// drawRow fills a seed-only row's draw vector d from r, each site's
// region in evaluation order, so the stream (the polar method's cached
// variate included) runs from one site's draws into the next as it
// does through the sites' EvalBound calls on a lane's generator.
func (s *Scenario) drawRow(r *rng.Rand, d []float64) {
	for _, bc := range s.binds {
		bc.draw.Draw(r, d[bc.dlo:bc.dhi])
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

// column returns the lane slot of a column a sweep can evaluate at a
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
// one-column projection of the row. Every sample evaluates the full
// row (one world of the whole scenario) and keeps one column — the
// simulation is a single stochastic function; columns are views of
// it. Sweeps of several columns share rows instead (SweepColumns).
func (s *Scenario) ColumnEval(name string) (mc.PointEval, error) {
	slot, err := s.column(name)
	if err != nil {
		return nil, err
	}
	return &columns{s: s, slots: []int{slot}}, nil
}

// columns is a scenario row as an mc.PointEval whose output c is lane
// slot slots[c]: the binding is a row of mc.DefaultBlockSize lanes
// BindRow has bound, and a block runs the row's kernels over up to that
// many samples at a time. A seed-only row's sites read each sample's
// draw vector from the scenario's table. Any other row, and a block
// with a sample past the table's bound, gives each lane a generator
// seeded with its sample's seed, which the sites draw from in
// evaluation order.
type columns struct {
	s     *Scenario
	slots []int
}

// Space implements mc.PointEval: the scenario's space.
func (c *columns) Space() *param.Space { return c.s.Space }

// BindPoint implements mc.PointEval.
func (c *columns) BindPoint(vals, buf []float64) []float64 {
	n := c.s.rowLen(mc.DefaultBlockSize)
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	c.s.BindRow(vals, buf)
	return buf
}

// EvalBlockBound implements mc.PointEval. A block writes only the lanes
// and the unbound call sites' argument buffers, which BindRow leaves
// alone, so the binding survives it.
func (c *columns) EvalBlockBound(row []float64, outs [][]float64, master uint64, ids []int, r *rng.Rand) {
	s := c.s
	var vals []float64 // sample id's draws at vals[id*width:]
	table := s.table != nil
	if table {
		vals, table = s.table.load(s, master, ids, r)
	}
	l := ctxPool.Get().(*blockCtx)
	b := &l.b
	for lo := 0; lo < len(ids); lo += mc.DefaultBlockSize {
		chunk := ids[lo:min(lo+mc.DefaultBlockSize, len(ids))]
		*b = s.block(row, mc.DefaultBlockSize, len(chunk))
		if table {
			b.draws, b.ids = vals, chunk
		} else {
			b.gens = l.gens[:len(chunk)]
			for j, id := range chunk {
				b.gens[j].Seed(rng.SampleSeed(master, id))
			}
		}
		s.run(b)
		for i, out := range outs {
			if out != nil {
				copy(out[lo:], b.lane(c.slots[i]))
			}
		}
	}
	l.release()
}

// compiler lowers one scenario's expressions to kernels: it resolves
// every column, parameter and function name and lays out the row of
// the Scenario it fills in.
type compiler struct {
	*Scenario
	boxes *blackbox.Registry
	// rowDecls are the declarations in value-row order (see BindRow).
	rowDecls []param.Decl
	// slots maps each compiled column to its lane slot.
	slots map[string]int
	// into is the program kernels go to: the row's, or a bound call
	// site's while bind is set; then new slots are point slots, one
	// lane wide, rather than lane slots.
	into *[]kernel
	bind bool
	// drawNext is the next free variate of a seed-only row's draw
	// vector.
	drawNext int
}

// slot returns dst, or a new slot when dst < 0.
func (c *compiler) slot(dst int) int {
	switch {
	case dst >= 0:
		return dst
	case c.bind:
		c.width++
		return c.width - 1
	default:
		c.lanes++
		return c.lanes - 1
	}
}

// emit appends k to the program being compiled.
func (c *compiler) emit(k kernel) { *c.into = append(*c.into, k) }

// alias returns slot src, or copies it into dst when dst ≥ 0.
func (c *compiler) alias(src, dst int) int {
	if dst < 0 {
		return src
	}
	c.emit(func(b *block) { copy(b.lane(dst), b.lane(src)) })
	return dst
}

// expr lowers a parsed expression to kernels that leave its value in
// slot dst (a new slot when dst < 0) and returns that slot. Booleans
// are represented as 0/1 floats.
func (c *compiler) expr(e sqlparse.Expr, dst int) (int, error) {
	switch n := e.(type) {
	case *sqlparse.NumberLit:
		v, d := n.Value, c.slot(dst)
		c.emit(func(b *block) { fill(b.lane(d), v) })
		return d, nil
	case *sqlparse.StringLit:
		return 0, errors.New("string literals are not numeric")
	case *sqlparse.ColRef:
		idx, ok := c.slots[n.Name]
		if !ok {
			return 0, fmt.Errorf("unknown column %q", n.Name)
		}
		return c.alias(idx, dst), nil
	case *sqlparse.ParamRef:
		if c.bind { // the point region is the bind program's lanes
			return c.param(n.Name, dst)
		}
		ps, err := c.param(n.Name, -1)
		if err != nil {
			return 0, err
		}
		d := c.slot(dst)
		c.emit(func(b *block) { fill(b.lane(d), b.pt[ps]) })
		return d, nil
	case *sqlparse.Unary:
		switch n.Op {
		case "NOT":
			return c.op(opNot, dst, n.E)
		case "-":
			return c.op(opNeg, dst, n.E)
		}
		return 0, fmt.Errorf("unsupported operator %q", n.Op)
	case *sqlparse.Binary:
		op, ok := binaryOps[n.Op]
		if !ok {
			return 0, fmt.Errorf("unsupported operator %q", n.Op)
		}
		return c.op(op, dst, n.Left, n.Right)
	case *sqlparse.CaseExpr:
		return c.caseExpr(n, dst)
	case *sqlparse.FuncCall:
		return c.call(n, dst)
	default:
		return 0, fmt.Errorf("unsupported expression %T", e)
	}
}

// exprs lowers es in order, each to a new slot, and returns the slots.
func (c *compiler) exprs(es ...sqlparse.Expr) ([]int, error) {
	in := make([]int, len(es))
	for i, e := range es {
		var err error
		if in[i], err = c.expr(e, -1); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// param resolves a parameter reference to a point slot BindRow writes
// its value to once per point: dst when dst ≥ 0 (a bound call site's
// bare argument), otherwise the first such slot, or a new one.
func (c *compiler) param(name string, dst int) (int, error) {
	pos := slices.IndexFunc(c.rowDecls, func(d param.Decl) bool { return d.Name == name })
	if pos < 0 {
		return 0, fmt.Errorf("undeclared parameter @%s", name)
	}
	if c.rowDecls[pos].Kind == param.KindChain && c.chainParam == "" {
		c.chainParam = name
	}
	i := slices.IndexFunc(c.params, func(ps paramSlot) bool { return ps.pos == pos })
	if i >= 0 && dst < 0 {
		return c.params[i].slot, nil
	}
	if dst < 0 {
		dst = c.width
		c.width++
	}
	c.params = append(c.params, paramSlot{pos: pos, slot: dst})
	return dst, nil
}

// The operators and builtins a kernel applies lane by lane.
const (
	opAdd = iota
	opSub
	opMul
	opDiv
	opLt
	opLe
	opGt
	opGe
	opEq
	opNe
	opAnd
	opOr
	opMin
	opMax
	opNeg
	opNot
	opAbs
	opSqrt
	opPow
)

var binaryOps = map[string]int{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv,
	"<": opLt, "<=": opLe, ">": opGt, ">=": opGe, "=": opEq, "<>": opNe,
	"AND": opAnd, "OR": opOr,
}

// builtinOps implement sqlparse.Builtins, by canonical name. They
// draw nothing from the generator.
var builtinOps = map[string]int{"ABS": opAbs, "SQRT": opSqrt, "POW": opPow, "MINV": opMin, "MAXV": opMax}

// op compiles op's arguments, then emits the kernel applying op to
// their lanes (the first alone for a unary op) into slot dst. The
// switch sits inside the lane loop, where the branch predictor learns
// it: a function value per op called per lane measured 2–3 ns slower
// per lane.
func (c *compiler) op(op, dst int, args ...sqlparse.Expr) (int, error) {
	in, err := c.exprs(args...)
	if err != nil {
		return 0, err
	}
	l, r, d := in[0], in[len(in)-1], c.slot(dst)
	c.emit(func(b *block) {
		x, y, z := b.lane(l), b.lane(r), b.lane(d)
		for j := range z {
			a, v := x[j], y[j]
			switch op {
			case opAdd:
				v = a + v
			case opSub:
				v = a - v
			case opMul:
				v = a * v
			case opDiv:
				v = a / v
			case opLt:
				v = b2f(a < v)
			case opLe:
				v = b2f(a <= v)
			case opGt:
				v = b2f(a > v)
			case opGe:
				v = b2f(a >= v)
			case opEq:
				v = b2f(a == v)
			case opNe:
				v = b2f(a != v)
			case opAnd:
				v = b2f(a != 0 && v != 0)
			case opOr:
				v = b2f(a != 0 || v != 0)
			case opMin:
				v = math.Min(a, v)
			case opMax:
				v = math.Max(a, v)
			case opNeg:
				v = -a
			case opNot:
				v = b2f(a == 0)
			case opAbs:
				v = math.Abs(a)
			case opSqrt:
				v = math.Sqrt(a)
			case opPow:
				v = math.Pow(a, v)
			}
			z[j] = v
		}
	})
	return d, nil
}

// caseExpr compiles all arms. Every lane evaluates every arm, in order
// and the ELSE arm last, before the kernel selects each lane's value:
// unlike SQL's lazy CASE, *model calls inside untaken arms, ELSE
// included, are still evaluated* so the generator stream advances
// identically on every code path — the fixed stream-consumption
// discipline that keeps fingerprints comparable across parameter
// values (§3.1). Scenario authors pay a little wasted work for
// deterministic alignment.
func (c *compiler) caseExpr(n *sqlparse.CaseExpr, dst int) (int, error) {
	if len(n.Whens) == 0 {
		return 0, errors.New("CASE with no WHEN arm")
	}
	arms := make([]sqlparse.Expr, 0, 2*len(n.Whens)+1)
	for _, a := range n.Whens {
		arms = append(arms, a.When, a.Then)
	}
	if n.Else != nil {
		arms = append(arms, n.Else)
	}
	in, err := c.exprs(arms...)
	if err != nil {
		return 0, err
	}
	els, last := -1, 2*len(n.Whens)-2 // the ELSE arm's slot; in[last] is the last WHEN's
	if n.Else != nil {
		els = in[len(in)-1]
	}
	d := c.slot(dst)
	c.emit(func(b *block) {
		z := b.lane(d)
		if els < 0 {
			clear(z)
		} else {
			copy(z, b.lane(els))
		}
		// The first arm whose condition holds is written last.
		for i := last; i >= 0; i -= 2 {
			when, then := b.lane(in[i]), b.lane(in[i+1])
			for j := range z {
				if when[j] != 0 {
					z[j] = then[j]
				}
			}
		}
	})
	return d, nil
}

// call compiles a builtin or black-box call. A model call site owns a
// fixed argument region of the point region. A call to a
// blackbox.PointBox whose arguments are pointOnly is a bound call
// site: once per point, BindRow writes its bare parameter arguments
// into that region and runs the program its other arguments compile
// to, before binding the site's state region, and a block only draws
// from the state — from the draw table in a seed-only row, otherwise
// by one EvalBound call over the lanes' generators. Any other call
// gathers each lane's arguments into its region and calls Eval with
// the lane's generator.
func (c *compiler) call(n *sqlparse.FuncCall, dst int) (int, error) {
	if n.Name == "NULL" {
		return 0, errors.New("NULL is not supported by the lightweight engine")
	}
	if name, arity, ok := sqlparse.Builtin(n.Name); ok {
		if arity != len(n.Args) {
			return 0, fmt.Errorf("%s expects %d args, got %d", name, arity, len(n.Args))
		}
		return c.op(builtinOps[name], dst, n.Args...)
	}
	if c.boxes == nil {
		return 0, fmt.Errorf("unknown function %q (no registry)", n.Name)
	}
	box, err := c.boxes.Lookup(n.Name)
	if err != nil {
		return 0, err
	}
	if box.Arity() != len(n.Args) {
		return 0, fmt.Errorf("%s expects %d args, got %d", n.Name, box.Arity(), len(n.Args))
	}
	pb, bindable := box.(blackbox.PointBox)
	db, drawable := box.(blackbox.DrawBox)
	bound := bindable && pointOnly(n.Args...)
	switch { // the first call site, a call before its arguments, that keeps the draws per point
	case c.unshared != "":
	case !pointOnly(n.Args...):
		c.unshared = n.Name + ": its arguments vary per sample"
	case !bindable:
		c.unshared = n.Name + ": does not bind per point"
	case !drawable:
		c.unshared = n.Name + ": draws depend on its arguments"
	}
	lo := c.width
	hi := lo + len(n.Args)
	c.width = hi
	if bound {
		bc := boundCall{box: pb, draw: db, lo: lo, hi: hi}
		into := c.into
		c.into, c.bind = &bc.prog, true
		for i, a := range n.Args {
			if _, err := c.expr(a, lo+i); err != nil {
				return 0, err
			}
		}
		c.into, c.bind = into, false
		state := c.width
		end := state + pb.BoundLen()
		bc.state, bc.end, c.width = state, end, end
		if drawable {
			bc.dlo, bc.dhi = c.drawNext, c.drawNext+db.Draws()
			c.drawNext = bc.dhi
		}
		c.binds = append(c.binds, bc)
		d, s, dlo := c.slot(dst), c.Scenario, bc.dlo
		c.emit(func(b *block) {
			z, st := b.lane(d), b.pt[state:end]
			if b.gens != nil {
				pb.EvalBound(st, z, b.gens, nil)
				return
			}
			// A seed-only row: apply the site's region of each
			// sample's draws in the table, in place.
			db.Apply(st, b.draws[dlo:], s.table.width, b.ids, z)
		})
		return d, nil
	}
	args, err := c.exprs(n.Args...)
	if err != nil {
		return 0, err
	}
	d := c.slot(dst)
	c.emit(func(b *block) {
		z, buf := b.lane(d), b.pt[lo:hi]
		for j := range z {
			for i, a := range args {
				buf[i] = b.row[a*b.stride+j]
			}
			z[j] = box.Eval(buf, &b.gens[j])
		}
	})
	return d, nil
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
			_, _, builtin := sqlparse.Builtin(n.Name)
			ok = builtin && pointOnly(n.Args...)
		}
		if !ok {
			return false
		}
	}
	return true
}

// fill sets every lane of z to v.
func fill(z []float64, v float64) {
	for j := range z {
		z[j] = v
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
