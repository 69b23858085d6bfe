package pdb

import (
	"errors"
	"fmt"
	"math"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/sqlparse"
)

// BoundExpr is a compiled expression: it evaluates over a whole
// world block at once, one Vec per call. Every expression Bind
// compiles is a blockExpr, wrapped as a vgExpr when it holds a VG
// call.
type BoundExpr interface {
	// EvalBlock evaluates against one block row over the worlds active
	// in mask (nil = every world of the block).
	EvalBlock(row BlockRow, mask Mask, ctx *BlockCtx) (*Vec, error)
}

// blockExpr is the form every bound expression compiles to; one that
// holds a VG call is wrapped as a vgExpr.
type blockExpr func(row BlockRow, mask Mask, ctx *BlockCtx) (*Vec, error)

// EvalBlock implements BoundExpr.
func (f blockExpr) EvalBlock(row BlockRow, mask Mask, ctx *BlockCtx) (*Vec, error) {
	return f(row, mask, ctx)
}

// drawsVG reports that a blockExpr holds no VG call.
func (blockExpr) drawsVG() bool { return false }

// vgExpr is a bound expression that holds a VG call, so it may draw
// from the world streams.
type vgExpr struct{ blockExpr }

// drawsVG reports that a vgExpr holds a VG call.
func (vgExpr) drawsVG() bool { return true }

// exprDraws reports whether e may draw from the world streams: Bind
// records whether an expression holds a VG call, and an expression
// Bind did not build counts as drawing.
func exprDraws(e BoundExpr) bool {
	d, ok := e.(interface{ drawsVG() bool })
	return !ok || d.drawsVG()
}

// over returns f as a bound expression that draws when any of the
// expressions it evaluates does (a nil one, CASE's missing ELSE,
// draws nothing).
func over(f blockExpr, kids ...BoundExpr) BoundExpr {
	for _, k := range kids {
		if k != nil && exprDraws(k) {
			return vgExpr{f}
		}
	}
	return f
}

// Bind compiles a parsed expression against schema s, resolving
// column names to positions and function names to builtins or to
// boxes' VG-functions once rather than per row — the standard
// interpreted-engine compromise between a full compiler and per-row
// name lookup. A nil boxes forbids VG calls.
func Bind(e sqlparse.Expr, s Schema, boxes *blackbox.Registry) (BoundExpr, error) {
	switch n := e.(type) {
	case nil:
		return nil, errors.New("pdb: nil expression")
	case *sqlparse.NumberLit:
		return constant(Float(n.Value)), nil
	case *sqlparse.StringLit:
		return constant(Str(n.Value)), nil
	case *sqlparse.ColRef:
		i, err := s.IndexOf(n.Name)
		if err != nil {
			return nil, err
		}
		return blockExpr(func(row BlockRow, _ Mask, _ *BlockCtx) (*Vec, error) { return row[i], nil }), nil
	case *sqlparse.ParamRef:
		// A parameter is uniform across the block's worlds.
		name := n.Name
		return blockExpr(func(_ BlockRow, _ Mask, ctx *BlockCtx) (*Vec, error) {
			v, ok := ctx.Params[name]
			if !ok {
				return nil, fmt.Errorf("pdb: unbound parameter @%s", name)
			}
			return ctx.uniformVec(Float(v)), nil
		}), nil
	case *sqlparse.Unary:
		inner, err := Bind(n.E, s, boxes)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "-":
			return bindNumeric(numericOps["NEG"], []BoundExpr{inner}, false), nil
		case "NOT":
			return unaryBlock(inner, notValue), nil
		}
		return nil, fmt.Errorf("pdb: unknown operator %q", n.Op)
	case *sqlparse.Binary:
		return bindBinary(n, s, boxes)
	case *sqlparse.CaseExpr:
		return bindCase(n, s, boxes)
	case *sqlparse.FuncCall:
		if n.Name == "NULL" {
			return constant(Null()), nil
		}
		return bindCall(n, s, boxes)
	}
	return nil, fmt.Errorf("pdb: unsupported expression %T", e)
}

// constant is a literal: uniform across the block's worlds.
func constant(v Value) BoundExpr {
	return blockExpr(func(_ BlockRow, _ Mask, ctx *BlockCtx) (*Vec, error) {
		return ctx.uniformVec(v), nil
	})
}

// ---------- Operators ----------

// bindBinary binds a binary operator: + - * / < <= > >= = <> AND OR.
func bindBinary(b *sqlparse.Binary, s Schema, boxes *blackbox.Registry) (BoundExpr, error) {
	l, err := Bind(b.Left, s, boxes)
	if err != nil {
		return nil, err
	}
	r, err := Bind(b.Right, s, boxes)
	if err != nil {
		return nil, err
	}
	op := b.Op
	switch op {
	case "+", "-", "*", "/":
		return bindNumeric(numericOps[op], []BoundExpr{l, r}, false), nil
	case "<", "<=", ">", ">=", "=", "<>":
		return binOpBlock(l, r, func(lv, rv Value) (Value, error) { return compareValues(op, lv, rv) }), nil
	case "AND", "OR":
		return binOpBlock(l, r, func(lv, rv Value) (Value, error) { return logicValues(op, lv, rv) }), nil
	default:
		return nil, fmt.Errorf("pdb: unknown operator %q", op)
	}
}

// binOpBlock evaluates both children over the block and combines them
// lane-wise with combine, taking the compute-once shortcut when both
// sides are uniform (deterministic subtrees evaluate once per block,
// not once per world).
func binOpBlock(l, r BoundExpr, combine func(Value, Value) (Value, error)) BoundExpr {
	return over(func(row BlockRow, mask Mask, ctx *BlockCtx) (*Vec, error) {
		lv, err := l.EvalBlock(row, mask, ctx)
		if err != nil {
			return nil, err
		}
		rv, err := r.EvalBlock(row, mask, ctx)
		if err != nil {
			return nil, err
		}
		if lv.uniform && rv.uniform {
			val, err := combine(lv.u, rv.u)
			if err != nil {
				return nil, err
			}
			return ctx.uniformVec(val), nil
		}
		dst := ctx.lanesVec()
		for w := 0; w < ctx.W; w++ {
			if mask != nil && !mask[w] {
				continue
			}
			val, err := combine(lv.Lane(w), rv.Lane(w))
			if err != nil {
				return nil, err
			}
			dst.setLane(w, val)
		}
		return dst, nil
	}, l, r)
}

// compareValues is the value-level core of comparison.
func compareValues(op string, lv, rv Value) (Value, error) {
	if lv.IsNull() || rv.IsNull() {
		return Null(), nil
	}
	if op == "=" {
		return Bool(lv.Equal(rv)), nil
	}
	if op == "<>" {
		return Bool(!lv.Equal(rv)), nil
	}
	c, err := lv.Compare(rv)
	if err != nil {
		return Null(), err
	}
	switch op {
	case "<":
		return Bool(c < 0), nil
	case "<=":
		return Bool(c <= 0), nil
	case ">":
		return Bool(c > 0), nil
	default: // ">="
		return Bool(c >= 0), nil
	}
}

// logicValues is the value-level core of AND/OR, in SQL's
// three-valued logic: an operand equal to the operator's deciding
// value (FALSE for AND, TRUE for OR) decides the result even when the
// other operand is NULL; otherwise a NULL operand makes it NULL. A
// non-boolean operand is an error on either side, deciding value or
// not.
func logicValues(op string, lv, rv Value) (Value, error) {
	decider := op == "OR"
	decided, null := false, false
	for _, v := range [2]Value{lv, rv} {
		if v.IsNull() {
			null = true
			continue
		}
		b, err := v.AsBool()
		if err != nil {
			return Null(), err
		}
		decided = decided || b == decider
	}
	switch {
	case decided:
		return Bool(decider), nil
	case null:
		return Null(), nil
	}
	return Bool(!decider), nil
}

// unaryBlock applies f lane-wise to e's column (once for a uniform
// column).
func unaryBlock(e BoundExpr, f func(Value) (Value, error)) BoundExpr {
	return over(func(row BlockRow, mask Mask, ctx *BlockCtx) (*Vec, error) {
		v, err := e.EvalBlock(row, mask, ctx)
		if err != nil {
			return nil, err
		}
		if v.uniform {
			val, err := f(v.u)
			if err != nil {
				return nil, err
			}
			return ctx.uniformVec(val), nil
		}
		dst := ctx.lanesVec()
		for w := 0; w < ctx.W; w++ {
			if mask != nil && !mask[w] {
				continue
			}
			val, err := f(v.Lane(w))
			if err != nil {
				return nil, err
			}
			dst.setLane(w, val)
		}
		return dst, nil
	}, e)
}

// numericRule is one numeric operator or builtin over its operands x
// and, for a binary rule, y. ok=false makes the result NULL.
type numericRule func(x, y float64) (f float64, ok bool)

// numericOps holds every numeric rule: the arithmetic operators, unary
// minus ("NEG") and the scalar builtins (sqlparse.Builtins), by
// canonical name.
var numericOps = map[string]numericRule{
	"+":    func(x, y float64) (float64, bool) { return x + y, true },
	"-":    func(x, y float64) (float64, bool) { return x - y, true },
	"*":    func(x, y float64) (float64, bool) { return x * y, true },
	"/":    func(x, y float64) (float64, bool) { return x / y, y != 0 }, // SQL-style: division by zero yields NULL
	"NEG":  func(x, _ float64) (float64, bool) { return -x, true },
	"ABS":  func(x, _ float64) (float64, bool) { return math.Abs(x), true },
	"SQRT": func(x, _ float64) (float64, bool) { return math.Sqrt(x), true },
	"POW":  func(x, y float64) (float64, bool) { return math.Pow(x, y), true },
	"MINV": func(x, y float64) (float64, bool) { return math.Min(x, y), true },
	"MAXV": func(x, y float64) (float64, bool) { return math.Max(x, y), true },
}

// bindNumeric binds a numeric rule over its one or two operands. An
// operator (narrow=false) evaluates every operand over the active
// worlds, and a NULL operand makes that world's result NULL. A call
// (narrow=true) narrows its mask at the first NULL argument
// (evalArgColumns), so later arguments do not draw in that world.
// Uniform operands compute once per block.
func bindNumeric(fn numericRule, args []BoundExpr, narrow bool) BoundExpr {
	return over(func(row BlockRow, mask Mask, ctx *BlockCtx) (*Vec, error) {
		vecs := ctx.newRow(len(args))
		cur, allUniform, dead := mask, true, false
		var err error
		if narrow {
			cur, allUniform, dead, err = evalArgColumns(args, vecs, row, mask, ctx)
		} else {
			for i, a := range args {
				if vecs[i], err = a.EvalBlock(row, mask, ctx); err != nil {
					break
				}
				allUniform = allUniform && vecs[i].uniform
			}
		}
		switch {
		case err != nil:
			return nil, err
		case dead:
			return ctx.uniformVec(Null()), nil
		}
		if allUniform {
			f, ok, err := numericLane(fn, vecs, 0)
			if err != nil {
				return nil, err
			}
			if !ok {
				return ctx.uniformVec(Null()), nil
			}
			return ctx.uniformVec(Float(f)), nil
		}
		dst := ctx.lanesVec()
		for w := 0; w < ctx.W; w++ {
			if cur != nil && !cur[w] {
				continue
			}
			f, ok, err := numericLane(fn, vecs, w)
			if err != nil {
				return nil, err
			}
			if ok {
				dst.setFloat(w, f)
			}
		}
		return dst, nil
	}, args...)
}

// numericLane applies fn to world w's operands: NULL (ok=false) at the
// first NULL operand, and an error at a string operand only when no
// operand is NULL.
func numericLane(fn numericRule, vecs []*Vec, w int) (f float64, ok bool, err error) {
	var x [2]float64
	str := false
	for i, v := range vecs {
		k, f := v.laneNum(w)
		switch k {
		case KindNull:
			return 0, false, nil
		case KindString:
			str = true
		}
		x[i] = f
	}
	if str {
		return 0, false, errNotNumeric(KindString)
	}
	f, ok = fn(x[0], x[1])
	return f, ok, nil
}

// notValue is the value-level core of logical negation.
func notValue(v Value) (Value, error) {
	if v.IsNull() {
		return Null(), nil
	}
	b, err := v.AsBool()
	if err != nil {
		return Null(), err
	}
	return Bool(!b), nil
}

// bindCase binds CASE WHEN c1 THEN t1 [WHEN ...]* [ELSE e] END as
// nested single-arm cases: the ELSE of arm i is arm i+1's case, and
// the last arm's is e (nil → NULL).
func bindCase(c *sqlparse.CaseExpr, s Schema, boxes *blackbox.Registry) (BoundExpr, error) {
	if len(c.Whens) == 0 {
		return nil, errors.New("pdb: CASE with no WHEN arm")
	}
	arms := make([]BoundExpr, 0, 2*len(c.Whens))
	for _, a := range c.Whens {
		for _, e := range [2]sqlparse.Expr{a.When, a.Then} {
			b, err := Bind(e, s, boxes)
			if err != nil {
				return nil, err
			}
			arms = append(arms, b)
		}
	}
	var out BoundExpr
	if c.Else != nil {
		var err error
		if out, err = Bind(c.Else, s, boxes); err != nil {
			return nil, err
		}
	}
	for i := len(arms) - 2; i >= 0; i -= 2 {
		out = caseBlock(arms[i], arms[i+1], out)
	}
	return out, nil
}

// caseBlock is CASE WHEN w THEN t [ELSE e] END; a nil e is NULL.
func caseBlock(w, t, e BoundExpr) BoundExpr {
	// The condition evaluates once over the block, then each branch
	// only over the worlds that take it — so branch randomness (a VG
	// call inside THEN) is consumed in exactly the worlds a per-world
	// evaluation would consume it in.
	return over(func(row BlockRow, mask Mask, ctx *BlockCtx) (*Vec, error) {
		cond, err := w.EvalBlock(row, mask, ctx)
		if err != nil {
			return nil, err
		}
		if cond.uniform {
			ok := false
			if !cond.u.IsNull() {
				if ok, err = cond.u.AsBool(); err != nil {
					return nil, err
				}
			}
			if ok {
				return t.EvalBlock(row, mask, ctx)
			}
			if e == nil {
				return ctx.uniformVec(Null()), nil
			}
			return e.EvalBlock(row, mask, ctx)
		}
		thenM := ctx.newMask(nil)
		elseM := ctx.newMask(nil)
		anyThen, anyElse := false, false
		for lane := 0; lane < ctx.W; lane++ {
			if mask != nil && !mask[lane] {
				thenM[lane], elseM[lane] = false, false
				continue
			}
			ok, notNull, err := cond.laneBool(lane)
			if err != nil {
				return nil, err
			}
			taken := notNull && ok
			thenM[lane] = taken
			elseM[lane] = !taken
			if taken {
				anyThen = true
			} else {
				anyElse = true
			}
		}
		var tv, ev *Vec
		if anyThen {
			if tv, err = t.EvalBlock(row, thenM, ctx); err != nil {
				return nil, err
			}
		}
		if e != nil && anyElse {
			if ev, err = e.EvalBlock(row, elseM, ctx); err != nil {
				return nil, err
			}
		}
		dst := ctx.lanesVec()
		for lane := 0; lane < ctx.W; lane++ {
			if mask != nil && !mask[lane] {
				continue
			}
			if thenM[lane] {
				dst.setLane(lane, tv.Lane(lane))
			} else if ev != nil {
				dst.setLane(lane, ev.Lane(lane))
			}
		}
		return dst, nil
	}, w, t, e)
}

// bindCall binds a call of a scalar builtin (sqlparse.Builtins) or of
// a VG-function registered in boxes (a stochastic black box); VG calls
// draw from each world's generator.
func bindCall(c *sqlparse.FuncCall, s Schema, boxes *blackbox.Registry) (BoundExpr, error) {
	args := make([]BoundExpr, len(c.Args))
	for i, a := range c.Args {
		b, err := Bind(a, s, boxes)
		if err != nil {
			return nil, err
		}
		args[i] = b
	}
	if name, arity, ok := sqlparse.Builtin(c.Name); ok {
		if arity != len(args) {
			return nil, fmt.Errorf("pdb: %s expects %d args, got %d", name, arity, len(args))
		}
		return bindNumeric(numericOps[name], args, true), nil
	}
	if boxes == nil {
		return nil, fmt.Errorf("pdb: unknown function %q (no VG registry bound)", c.Name)
	}
	box, err := boxes.Lookup(c.Name)
	if err != nil {
		return nil, err
	}
	if box.Arity() != len(args) {
		return nil, fmt.Errorf("pdb: VG function %s expects %d args, got %d",
			c.Name, box.Arity(), len(args))
	}
	return bindVGCall(box, args), nil
}

// evalArgColumns evaluates call arguments over the block with SQL's
// per-world NULL discipline: a NULL argument in world w stops
// evaluation of the remaining arguments *in that world* (they are
// neither computed nor drawn there), so each argument column is
// evaluated under a progressively narrowed mask. It returns the
// narrowed mask of worlds where every argument is non-NULL, whether
// all argument vectors are uniform, and dead=true when no active
// world survived (the whole column is NULL; later arguments were not
// evaluated at all).
func evalArgColumns(args []BoundExpr, vecs []*Vec, row BlockRow, mask Mask, ctx *BlockCtx) (cur Mask, allUniform, dead bool, err error) {
	cur = mask
	allUniform = true
	for i, a := range args {
		v, err := a.EvalBlock(row, cur, ctx)
		if err != nil {
			return nil, false, false, err
		}
		vecs[i] = v
		if v.uniform {
			if v.u.IsNull() {
				return cur, allUniform, true, nil
			}
			continue
		}
		allUniform = false
		narrowed := false
		for w := 0; w < ctx.W; w++ {
			if cur != nil && !cur[w] {
				continue
			}
			if Kind(v.kind[w]) == KindNull {
				if !narrowed {
					cur = ctx.newMask(cur)
					narrowed = true
				}
				cur[w] = false
			}
		}
		if narrowed && countSet(cur, ctx.W) == 0 {
			return cur, allUniform, true, nil
		}
	}
	return cur, allUniform, false, nil
}

// bindVGCall is where the block pipeline pays off: the argument
// columns of a data-dependent model are uniform across worlds (they
// come from stored tables and parameters), so the argument decode
// happens once per row-block, and a PointBox binds them once into the
// context's scratch and draws every world by one call instead of W
// interface dispatches. While the world streams are untouched (the
// first draw of each world) a DrawBox applies each world's draw vector
// from the call site's DrawTable, world w being sample w; otherwise
// one EvalBound call draws the live streams. Any other box, and
// arguments that vary by world, take a per-world Eval loop.
func bindVGCall(box blackbox.Box, args []BoundExpr) BoundExpr {
	point, _ := box.(blackbox.PointBox)
	draw, _ := box.(blackbox.DrawBox)
	boundLen := 0
	if point != nil {
		boundLen = point.BoundLen()
	}
	var table *blackbox.DrawTable
	if draw != nil {
		table = blackbox.NewDrawTable(draw.Draws(), draw.Draw)
	}
	return vgExpr{func(row BlockRow, mask Mask, ctx *BlockCtx) (*Vec, error) {
		vecs := ctx.newRow(len(args))
		cur, allUniform, dead, err := evalArgColumns(args, vecs, row, mask, ctx)
		if err != nil {
			return nil, err
		}
		if dead {
			return ctx.uniformVec(Null()), nil
		}
		scratch := ctx.floats(len(args) + boundLen)
		argv, state := scratch[:len(args)], scratch[len(args):]
		if allUniform {
			for i, v := range vecs {
				if argv[i], err = v.u.AsFloat(); err != nil {
					return nil, err
				}
			}
			if point != nil {
				dst := ctx.floatVec(cur)
				point.Bind(argv, state)
				if table != nil && cur == nil && ctx.freshLaneOpen() {
					// First draw of every world in the block: a freshly
					// seeded generator per world draws exactly the
					// table's vector, so apply the block from it. A
					// later draw makes materialize replay this one.
					if vals, all := table.Load(ctx.Master, ctx.IDs); all {
						draw.Apply(state, vals, table.Width(), ctx.IDs, dst.f)
						ctx.deferred = draw
						return dst, nil
					}
				}
				ctx.materialize()
				point.EvalBound(state, dst.f, ctx.Rands, cur)
				return dst, nil
			}
		}
		dst := ctx.lanesVec()
		ctx.materialize()
		for w := 0; w < ctx.W; w++ {
			if cur != nil && !cur[w] {
				continue
			}
			for i, v := range vecs {
				f, _, err := v.laneFloat(w)
				if err != nil {
					return nil, err
				}
				argv[i] = f
			}
			dst.setFloat(w, box.Eval(argv, &ctx.Rands[w]))
		}
		return dst, nil
	}}
}
