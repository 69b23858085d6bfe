package pdb

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/rng"
	"jigsaw/internal/sqlparse"
	"jigsaw/internal/stats"
)

// The reference oracle: a per-world interpreter that evaluates a plan
// one world at a time, tuple at a time, against that world's seeded
// generator. It shares only value-level cores with the executor
// (compareValues, logicValues and the Value methods); its arithmetic
// (refArith), builtins and aggregate fold are its own. Plans are
// interpreted by a type switch over the built-in operators;
// expressions by walking the parsed sqlparse tree that mustBind
// records, so the oracle never runs the closures Bind produced. The
// oracle folds its per-world tables into per-cell block moments itself
// (refFold: its own positional alignment, gather and key rows) and
// shares only the ordered merge with production (commitBlocks), so a
// Distribution from the oracle is comparable cell by cell, bit for
// bit, with one from RunDistribution (sameDistribution).

// astBound is what mustBind returns: the production evaluator plus the
// parsed expression, schema and registry it was bound from. The
// executor calls the embedded BoundExpr; the oracle reads the AST.
type astBound struct {
	BoundExpr
	expr   sqlparse.Expr
	schema Schema
	boxes  *blackbox.Registry
}

// drawsVG forwards Bind's record of whether the expression holds a VG
// call, so a plan over astBounds runs in chunks exactly when the same
// plan over Bind's expressions would.
func (a astBound) drawsVG() bool { return exprDraws(a.BoundExpr) }

// sqlExpr parses src as one SQL expression: the parser's tree is the
// tree Bind compiles.
func sqlExpr(t testing.TB, src string) sqlparse.Expr {
	t.Helper()
	script, err := sqlparse.Parse("SELECT " + src + " AS e")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return script.Selects[0].Items[0].Expr
}

// mustBind parses and binds the expression src, failing the test on
// error, and records its AST for the oracle.
func mustBind(t testing.TB, src string, s Schema, boxes *blackbox.Registry) BoundExpr {
	t.Helper()
	e := sqlExpr(t, src)
	b, err := Bind(e, s, boxes)
	if err != nil {
		t.Fatalf("bind %s: %v", src, err)
	}
	return astBound{BoundExpr: b, expr: e, schema: s, boxes: boxes}
}

// refWorld interprets plans within one world: every draw comes from
// the world's generator in plan order.
type refWorld struct {
	rand   *rng.Rand
	params map[string]float64
}

// refRun evaluates plan in the world seeded by seed.
func refRun(plan Plan, params map[string]float64, seed uint64) (*Table, error) {
	var r rng.Rand
	r.Seed(seed)
	w := &refWorld{rand: &r, params: params}
	return w.plan(plan)
}

// refDistribution is the oracle's RunDistribution: same options, same
// world seeds, same block partition (the batched accumulation is
// split-dependent), per-world interpretation instead of blocks.
func refDistribution(plan Plan, params map[string]float64, opts WorldsOptions) (*Distribution, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	var outs []*blockOut
	for lo := 0; lo < opts.Worlds; lo += opts.blockWorlds {
		hi := lo + opts.blockWorlds
		if hi > opts.Worlds {
			hi = opts.Worlds
		}
		tables := make([]*Table, hi-lo)
		for lane := range tables {
			if tables[lane], err = refRun(plan, params, rng.SampleSeed(opts.MasterSeed, lo+lane)); err != nil {
				return nil, fmt.Errorf("pdb: world %d: %w", lo+lane, err)
			}
		}
		outs = append(outs, refFold(lo, plan.Schema(), tables))
	}
	return commitBlocks(outs, opts)
}

// refFold is the oracle's own summary of one block's per-world tables:
// world 0's row count and the first world whose count differs; when
// none does, each cell's non-NULL numeric values in world order
// through one AddBlock, and world 0's string cells as keys.
func refFold(lo int, schema Schema, tables []*Table) *blockOut {
	out := &blockOut{lo: lo, schema: schema, rows: len(tables[0].Rows), odd: -1}
	for lane, t := range tables {
		if len(t.Rows) != out.rows {
			out.odd, out.oddRows = lane, len(t.Rows)
			return out
		}
	}
	ncols := len(schema)
	out.cells = make([]stats.Accumulator, out.rows*ncols)
	for k := 0; k < out.rows; k++ {
		for c := 0; c < ncols; c++ {
			var xs []float64
			for _, t := range tables {
				if v := t.Rows[k][c]; v.Kind() == KindFloat || v.Kind() == KindBool {
					f, _ := v.AsFloat() // bools as 0/1
					xs = append(xs, f)
				}
			}
			out.cells[k*ncols+c].Reset()
			out.cells[k*ncols+c].AddBlock(xs)
			if v := tables[0].Rows[k][c]; lo == 0 && v.Kind() == KindString {
				if out.keys == nil {
					out.keys = make([]Row, out.rows)
				}
				if out.keys[k] == nil {
					out.keys[k] = make(Row, ncols)
				}
				out.keys[k][c] = v
			}
		}
	}
	return out
}

// plan interprets one operator (and its inputs) in this world.
func (w *refWorld) plan(p Plan) (*Table, error) {
	switch p := p.(type) {
	case ValuesPlan:
		return &Table{Schema: p.Schema(), Rows: []Row{{}}}, nil
	case *ScanPlan:
		return &Table{Schema: p.Schema(), Rows: p.table.Rows}, nil
	case opaquePlan:
		return w.plan(p.inner)
	case *SelectPlan:
		in, err := w.plan(p.Child)
		if err != nil {
			return nil, err
		}
		out := &Table{Schema: in.Schema}
		for _, row := range in.Rows {
			keep, err := w.truth(p.Pred, row)
			if err != nil {
				return nil, err
			}
			if keep {
				out.Rows = append(out.Rows, row)
			}
		}
		return out, nil
	case *ProjectPlan:
		in, err := w.plan(p.Child)
		if err != nil {
			return nil, err
		}
		out := &Table{Schema: p.Schema()}
		for _, row := range in.Rows {
			nr := make(Row, len(p.Outputs))
			for i, o := range p.Outputs {
				if nr[i], err = w.eval(o.Expr, row); err != nil {
					return nil, err
				}
			}
			out.Rows = append(out.Rows, nr)
		}
		return out, nil
	case *ExtendPlan:
		in, err := w.plan(p.Child)
		if err != nil {
			return nil, err
		}
		out := &Table{Schema: p.Schema()}
		for _, row := range in.Rows {
			nr := append(Row(nil), row...)
			for _, o := range p.Outputs {
				v, err := w.eval(o.Expr, nr)
				if err != nil {
					return nil, err
				}
				nr = append(nr, v)
			}
			out.Rows = append(out.Rows, nr)
		}
		return out, nil
	case *AggregatePlan:
		return w.aggregate(p)
	}
	return nil, fmt.Errorf("oracle: no interpretation for plan %T", p)
}

// aggregate interprets an AggregatePlan: NULLs skipped, one row also
// over no input (a NULL sum).
func (w *refWorld) aggregate(p *AggregatePlan) (*Table, error) {
	in, err := w.plan(p.Child)
	if err != nil {
		return nil, err
	}
	states := make([]*sumState, len(p.Aggs))
	for i := range p.Aggs {
		states[i] = &sumState{}
	}
	for _, row := range in.Rows {
		for i, a := range p.Aggs {
			v, err := w.eval(a.Arg, row)
			if err != nil {
				return nil, err
			}
			if err := states[i].add(v); err != nil {
				return nil, err
			}
		}
	}
	out := make(Row, len(states))
	for i, st := range states {
		out[i] = st.result()
	}
	return &Table{Schema: p.Schema(), Rows: []Row{out}}, nil
}

// sumState is the oracle's scalar fold of one SUM in one world.
type sumState struct {
	n   int
	sum float64
}

func (a *sumState) add(v Value) error {
	if v.IsNull() {
		return nil
	}
	f, err := v.AsFloat()
	if err != nil {
		return err
	}
	a.n++
	a.sum += f
	return nil
}

func (a *sumState) result() Value {
	if a.n == 0 {
		return Null()
	}
	return Float(a.sum)
}

// truth evaluates a predicate; NULL is false.
func (w *refWorld) truth(e BoundExpr, row Row) (bool, error) {
	v, err := w.eval(e, row)
	if err != nil || v.IsNull() {
		return false, err
	}
	return v.AsBool()
}

// eval evaluates a bound expression by interpreting the AST mustBind
// recorded.
func (w *refWorld) eval(e BoundExpr, row Row) (Value, error) {
	if e, ok := e.(astBound); ok {
		return w.expr(e.expr, e.schema, e.boxes, row)
	}
	return Null(), fmt.Errorf("oracle: expression %T was not bound through mustBind", e)
}

// expr interprets a parsed expression against row, resolving names in
// schema s. A multi-arm CASE tries its arms in order.
func (w *refWorld) expr(e sqlparse.Expr, s Schema, boxes *blackbox.Registry, row Row) (Value, error) {
	switch e := e.(type) {
	case *sqlparse.NumberLit:
		return Float(e.Value), nil
	case *sqlparse.StringLit:
		return Str(e.Value), nil
	case *sqlparse.ColRef:
		i, err := s.IndexOf(e.Name)
		if err != nil {
			return Null(), err
		}
		return row[i], nil
	case *sqlparse.ParamRef:
		v, ok := w.params[e.Name]
		if !ok {
			return Null(), fmt.Errorf("oracle: unbound parameter @%s", e.Name)
		}
		return Float(v), nil
	case *sqlparse.Binary:
		l, err := w.expr(e.Left, s, boxes, row)
		if err != nil {
			return Null(), err
		}
		r, err := w.expr(e.Right, s, boxes, row)
		if err != nil {
			return Null(), err
		}
		switch e.Op {
		case "+", "-", "*", "/":
			return refArith(e.Op, l, r)
		case "AND", "OR":
			return logicValues(e.Op, l, r)
		default:
			return compareValues(e.Op, l, r)
		}
	case *sqlparse.Unary:
		v, err := w.expr(e.E, s, boxes, row)
		if err != nil || v.IsNull() {
			return Null(), err
		}
		if e.Op == "NOT" {
			b, err := v.AsBool()
			return Bool(!b), err
		}
		f, err := v.AsFloat()
		return Float(-f), err
	case *sqlparse.CaseExpr:
		for _, arm := range e.Whens {
			cond, err := w.expr(arm.When, s, boxes, row)
			if err != nil {
				return Null(), err
			}
			taken := false
			if !cond.IsNull() {
				if taken, err = cond.AsBool(); err != nil {
					return Null(), err
				}
			}
			if taken {
				return w.expr(arm.Then, s, boxes, row)
			}
		}
		if e.Else == nil {
			return Null(), nil
		}
		return w.expr(e.Else, s, boxes, row)
	case *sqlparse.FuncCall:
		if e.Name == "NULL" {
			return Null(), nil
		}
		return w.call(e, s, boxes, row)
	}
	return Null(), fmt.Errorf("oracle: no interpretation for expression %T", e)
}

// refArith is the oracle's arithmetic: NULL when either operand is
// NULL, else an error at a non-numeric operand, and NULL on a zero
// divisor.
func refArith(op string, l, r Value) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	x, err := l.AsFloat()
	if err != nil {
		return Null(), err
	}
	y, err := r.AsFloat()
	if err != nil {
		return Null(), err
	}
	switch op {
	case "+":
		return Float(x + y), nil
	case "-":
		return Float(x - y), nil
	case "*":
		return Float(x * y), nil
	case "/":
		if y == 0 {
			return Null(), nil
		}
		return Float(x / y), nil
	}
	return Null(), fmt.Errorf("oracle: no arithmetic operator %q", op)
}

// call interprets a builtin or VG call: arguments evaluate left to
// right and a NULL argument yields NULL without evaluating the rest
// or invoking the function.
func (w *refWorld) call(c *sqlparse.FuncCall, s Schema, boxes *blackbox.Registry, row Row) (Value, error) {
	vals := make([]Value, len(c.Args))
	for i, a := range c.Args {
		v, err := w.expr(a, s, boxes, row)
		if err != nil {
			return Null(), err
		}
		if v.IsNull() {
			return Null(), nil
		}
		vals[i] = v
	}
	args := make([]float64, len(vals))
	for i, v := range vals {
		f, err := v.AsFloat()
		if err != nil {
			return Null(), err
		}
		args[i] = f
	}
	switch strings.ToUpper(c.Name) {
	case "ABS":
		return Float(math.Abs(args[0])), nil
	case "SQRT":
		return Float(math.Sqrt(args[0])), nil
	case "POW":
		return Float(math.Pow(args[0], args[1])), nil
	case "MINV":
		return Float(math.Min(args[0], args[1])), nil
	case "MAXV":
		return Float(math.Max(args[0], args[1])), nil
	}
	box, err := boxes.Lookup(c.Name)
	if err != nil {
		return Null(), err
	}
	return Float(box.Eval(args, w.rand)), nil
}
