package pdb

import (
	"fmt"
	"math"
	"strings"

	"jigsaw/internal/blackbox"
)

// Expr is an unbound scalar expression. Expressions are compiled
// against a schema (Bind) before evaluation, resolving column names to
// positions once rather than per row — the standard interpreted-engine
// compromise between a full compiler and per-row name lookup.
type Expr interface {
	// Bind resolves names against the schema, returning an evaluator.
	Bind(s Schema, env *Env) (BoundExpr, error)
	// String renders the expression in SQL-ish syntax.
	String() string
}

// BoundExpr is a compiled expression: it evaluates over a whole
// world block at once, one Vec per call. Every built-in Expr binds to
// a blockExpr.
type BoundExpr interface {
	// EvalBlock evaluates against one block row over the worlds active
	// in mask (nil = every world of the block).
	EvalBlock(row BlockRow, mask Mask, ctx *BlockCtx) (*Vec, error)
}

// blockExpr is the form every built-in expression compiles to.
type blockExpr func(row BlockRow, mask Mask, ctx *BlockCtx) (*Vec, error)

// EvalBlock implements BoundExpr.
func (f blockExpr) EvalBlock(row BlockRow, mask Mask, ctx *BlockCtx) (*Vec, error) {
	return f(row, mask, ctx)
}

// Env carries bind-time context: the black-box registry for VG calls.
type Env struct {
	// Boxes resolves VG-function names; nil forbids VG calls.
	Boxes *blackbox.Registry
}

// ---------- Literals, columns, parameters ----------

// Lit is a constant.
type Lit struct{ Val Value }

// Bind implements Expr.
func (l Lit) Bind(Schema, *Env) (BoundExpr, error) {
	v := l.Val
	return blockExpr(func(_ BlockRow, _ Mask, ctx *BlockCtx) (*Vec, error) {
		return ctx.uniformVec(v), nil
	}), nil
}

func (l Lit) String() string { return l.Val.String() }

// Col references a column by name.
type Col struct{ Name string }

// Bind implements Expr.
func (c Col) Bind(s Schema, _ *Env) (BoundExpr, error) {
	i, err := s.IndexOf(c.Name)
	if err != nil {
		return nil, err
	}
	return blockExpr(func(row BlockRow, _ Mask, _ *BlockCtx) (*Vec, error) { return row[i], nil }), nil
}

func (c Col) String() string { return c.Name }

// Param references a declared @parameter.
type Param struct{ Name string }

// Bind implements Expr. A parameter is uniform across the block's
// worlds.
func (p Param) Bind(Schema, *Env) (BoundExpr, error) {
	name := p.Name
	return blockExpr(func(_ BlockRow, _ Mask, ctx *BlockCtx) (*Vec, error) {
		v, ok := ctx.Params[name]
		if !ok {
			return nil, fmt.Errorf("pdb: unbound parameter @%s", name)
		}
		return ctx.uniformVec(Float(v)), nil
	}), nil
}

func (p Param) String() string { return "@" + p.Name }

// ---------- Operators ----------

// BinOp is a binary operator.
type BinOp struct {
	Op          string // + - * / < <= > >= = <> AND OR
	Left, Right Expr
}

// Bind implements Expr.
func (b BinOp) Bind(s Schema, env *Env) (BoundExpr, error) {
	l, err := b.Left.Bind(s, env)
	if err != nil {
		return nil, err
	}
	r, err := b.Right.Bind(s, env)
	if err != nil {
		return nil, err
	}
	op := b.Op
	switch op {
	case "+", "-", "*", "/":
		return bindArith(op, l, r), nil
	case "<", "<=", ">", ">=", "=", "<>":
		return binOpBlock(l, r, func(lv, rv Value) (Value, error) { return compareValues(op, lv, rv) }), nil
	case "AND", "OR":
		return binOpBlock(l, r, func(lv, rv Value) (Value, error) { return logicValues(op, lv, rv) }), nil
	default:
		return nil, fmt.Errorf("pdb: unknown operator %q", op)
	}
}

func (b BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", b.Left, b.Op, b.Right)
}

// arithValues is the value-level core of arithmetic: the uniform fast
// path uses it directly, and the lane loop in bindArith reproduces it
// bit for bit on unboxed floats.
func arithValues(op string, lv, rv Value) (Value, error) {
	if lv.IsNull() || rv.IsNull() {
		return Null(), nil
	}
	lf, err := lv.AsFloat()
	if err != nil {
		return Null(), err
	}
	rf, err := rv.AsFloat()
	if err != nil {
		return Null(), err
	}
	switch op {
	case "+":
		return Float(lf + rf), nil
	case "-":
		return Float(lf - rf), nil
	case "*":
		return Float(lf * rf), nil
	default: // "/"
		if rf == 0 {
			return Null(), nil // SQL-style: division by zero yields NULL
		}
		return Float(lf / rf), nil
	}
}

// binOpBlock evaluates both children over the block and combines them
// lane-wise with combine, taking the compute-once shortcut when both
// sides are uniform (deterministic subtrees evaluate once per block,
// not once per world).
func binOpBlock(l, r BoundExpr, combine func(Value, Value) (Value, error)) blockExpr {
	return func(row BlockRow, mask Mask, ctx *BlockCtx) (*Vec, error) {
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
	}
}

func bindArith(op string, l, r BoundExpr) BoundExpr {
	// The lane loop special-cases the all-numeric case to skip Value
	// boxing; uniform operands go through the value-level core.
	return blockExpr(func(row BlockRow, mask Mask, ctx *BlockCtx) (*Vec, error) {
		lv, err := l.EvalBlock(row, mask, ctx)
		if err != nil {
			return nil, err
		}
		rv, err := r.EvalBlock(row, mask, ctx)
		if err != nil {
			return nil, err
		}
		if lv.uniform && rv.uniform {
			val, err := arithValues(op, lv.u, rv.u)
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
			if lv.laneIsNull(w) || rv.laneIsNull(w) {
				continue // lane stays NULL
			}
			lf, _, err := lv.laneFloat(w)
			if err != nil {
				return nil, err
			}
			rf, _, err := rv.laneFloat(w)
			if err != nil {
				return nil, err
			}
			switch op {
			case "+":
				dst.setFloat(w, lf+rf)
			case "-":
				dst.setFloat(w, lf-rf)
			case "*":
				dst.setFloat(w, lf*rf)
			default: // "/"
				if rf != 0 {
					dst.setFloat(w, lf/rf)
				}
			}
		}
		return dst, nil
	})
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
func unaryBlock(e BoundExpr, f func(Value) (Value, error)) blockExpr {
	return func(row BlockRow, mask Mask, ctx *BlockCtx) (*Vec, error) {
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
	}
}

// Neg is unary minus.
type Neg struct{ E Expr }

// Bind implements Expr.
func (n Neg) Bind(s Schema, env *Env) (BoundExpr, error) {
	e, err := n.E.Bind(s, env)
	if err != nil {
		return nil, err
	}
	return unaryBlock(e, negValue), nil
}

// negValue is the value-level core of unary minus.
func negValue(v Value) (Value, error) {
	if v.IsNull() {
		return Null(), nil
	}
	f, err := v.AsFloat()
	if err != nil {
		return Null(), err
	}
	return Float(-f), nil
}

func (n Neg) String() string { return fmt.Sprintf("(-%s)", n.E) }

// Not is logical negation.
type Not struct{ E Expr }

// Bind implements Expr.
func (n Not) Bind(s Schema, env *Env) (BoundExpr, error) {
	e, err := n.E.Bind(s, env)
	if err != nil {
		return nil, err
	}
	return unaryBlock(e, notValue), nil
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

func (n Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// Case is CASE WHEN cond THEN a [ELSE b] END (single-arm form, as the
// paper's Fig. 1 query uses; chained arms desugar to nesting).
type Case struct {
	When, Then, Else Expr // Else may be nil → NULL
}

// Bind implements Expr.
func (c Case) Bind(s Schema, env *Env) (BoundExpr, error) {
	w, err := c.When.Bind(s, env)
	if err != nil {
		return nil, err
	}
	t, err := c.Then.Bind(s, env)
	if err != nil {
		return nil, err
	}
	var e BoundExpr
	if c.Else != nil {
		if e, err = c.Else.Bind(s, env); err != nil {
			return nil, err
		}
	}
	// The condition evaluates once over the block, then each branch
	// only over the worlds that take it — so branch randomness (a VG
	// call inside THEN) is consumed in exactly the worlds a per-world
	// evaluation would consume it in.
	return blockExpr(func(row BlockRow, mask Mask, ctx *BlockCtx) (*Vec, error) {
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
	}), nil
}

func (c Case) String() string {
	if c.Else == nil {
		return fmt.Sprintf("CASE WHEN %s THEN %s END", c.When, c.Then)
	}
	return fmt.Sprintf("CASE WHEN %s THEN %s ELSE %s END", c.When, c.Then, c.Else)
}

// laneIsNull reports whether world w's lane is NULL.
func (v *Vec) laneIsNull(w int) bool {
	if v.uniform {
		return v.u.IsNull()
	}
	return Kind(v.kind[w]) == KindNull
}

// Call invokes either a scalar builtin (ABS, SQRT, MIN, MAX, POW) or a
// registered VG-function (stochastic black box). VG calls draw from
// each world's generator.
type Call struct {
	Name string
	Args []Expr
}

// scalarBuiltins are deterministic functions usable anywhere.
var scalarBuiltins = map[string]func(args []float64) (float64, error){
	"ABS":  func(a []float64) (float64, error) { return math.Abs(a[0]), nil },
	"SQRT": func(a []float64) (float64, error) { return math.Sqrt(a[0]), nil },
	"POW":  func(a []float64) (float64, error) { return math.Pow(a[0], a[1]), nil },
	"MINV": func(a []float64) (float64, error) { return math.Min(a[0], a[1]), nil },
	"MAXV": func(a []float64) (float64, error) { return math.Max(a[0], a[1]), nil },
}

// builtinArity maps builtin names to expected argument counts.
var builtinArity = map[string]int{"ABS": 1, "SQRT": 1, "POW": 2, "MINV": 2, "MAXV": 2}

// Bind implements Expr.
func (c Call) Bind(s Schema, env *Env) (BoundExpr, error) {
	args := make([]BoundExpr, len(c.Args))
	for i, a := range c.Args {
		b, err := a.Bind(s, env)
		if err != nil {
			return nil, err
		}
		args[i] = b
	}
	upper := strings.ToUpper(c.Name)
	if fn, ok := scalarBuiltins[upper]; ok {
		if want := builtinArity[upper]; want != len(args) {
			return nil, fmt.Errorf("pdb: %s expects %d args, got %d", upper, want, len(args))
		}
		return bindScalarCall(fn, args), nil
	}
	if env == nil || env.Boxes == nil {
		return nil, fmt.Errorf("pdb: unknown function %q (no VG registry bound)", c.Name)
	}
	box, err := env.Boxes.Lookup(c.Name)
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

func bindScalarCall(fn func([]float64) (float64, error), args []BoundExpr) BoundExpr {
	return blockExpr(func(row BlockRow, mask Mask, ctx *BlockCtx) (*Vec, error) {
		vecs := ctx.newRow(len(args))
		cur, allUniform, dead, err := evalArgColumns(args, vecs, row, mask, ctx)
		if err != nil {
			return nil, err
		}
		if dead {
			return ctx.uniformVec(Null()), nil
		}
		argv := ctx.floats(len(args))
		if allUniform {
			for i, v := range vecs {
				if argv[i], err = v.u.AsFloat(); err != nil {
					return nil, err
				}
			}
			f, err := fn(argv)
			if err != nil {
				return nil, err
			}
			return ctx.uniformVec(Float(f)), nil
		}
		dst := ctx.lanesVec()
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
			f, err := fn(argv)
			if err != nil {
				return nil, err
			}
			dst.setFloat(w, f)
		}
		return dst, nil
	})
}

// bindVGCall is where the block pipeline pays off: the argument
// columns of a data-dependent model are uniform across worlds (they
// come from stored tables and parameters), so the argument decode
// happens once per row-block and the draws go through a kernel —
// a native BlockBox kernel (bulk rng fills) while the world streams
// are untouched (first draw of each world), StreamBox on live streams
// otherwise — instead of W interface dispatches.
func bindVGCall(box blackbox.Box, args []BoundExpr) BoundExpr {
	block, _ := box.(blackbox.BlockBox)
	return blockExpr(func(row BlockRow, mask Mask, ctx *BlockCtx) (*Vec, error) {
		vecs := ctx.newRow(len(args))
		cur, allUniform, dead, err := evalArgColumns(args, vecs, row, mask, ctx)
		if err != nil {
			return nil, err
		}
		if dead {
			return ctx.uniformVec(Null()), nil
		}
		argv := ctx.floats(len(args))
		if allUniform {
			for i, v := range vecs {
				if argv[i], err = v.u.AsFloat(); err != nil {
					return nil, err
				}
			}
			dst := ctx.floatVec(cur)
			if block != nil && cur == nil && ctx.freshLaneOpen() {
				// First draw of every world in the block: a freshly
				// seeded generator per world is exactly what BlockBox
				// kernels amortize, so dispatch straight to them (for
				// Demand this is one bulk FillNormal over the block).
				// A box without a kernel would gain nothing here, and
				// a later draw would make materialize replay it.
				block.EvalBlock(argv, dst.f, ctx.Seeds)
				ctx.noteFreshDraw(box, argv)
				return dst, nil
			}
			ctx.materialize()
			blackbox.EvalStream(box, argv, dst.f, ctx.Rands, cur)
			return dst, nil
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
	})
}

func (c Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(parts, ", "))
}
