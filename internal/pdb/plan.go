package pdb

import (
	"fmt"
	"sort"
)

// Plan is a query-plan node: a relational operator tree whose answer
// is one relation per possible world. Plans are built (bound) against
// a DB, then executed a block of worlds at a time: ExecuteBlock
// returns the operator's output for every world of the block in
// world-blocked columnar form.
type Plan interface {
	// Schema returns the output schema.
	Schema() Schema
	// ExecuteBlock materializes the operator's output for every world
	// of the block.
	ExecuteBlock(ctx *BlockCtx) (*BlockTable, error)
	// String renders a one-line operator description.
	String() string
}

// ---------- Leaf operators ----------

// ValuesPlan produces a single empty row: the FROM-less SELECT source
// (Fig. 1's query selects straight from models).
type ValuesPlan struct{}

// Schema implements Plan.
func (ValuesPlan) Schema() Schema { return Schema{} }

// ExecuteBlock implements Plan.
func (ValuesPlan) ExecuteBlock(ctx *BlockCtx) (*BlockTable, error) {
	return &BlockTable{Schema: Schema{}, Rows: []BlockRow{ctx.newRow(0)}}, nil
}

func (ValuesPlan) String() string { return "Values()" }

// ScanPlan reads a stored table. The backing table is shared across
// worlds (deterministic data); uncertain attributes enter through VG
// calls in enclosing Project and Extend nodes.
type ScanPlan struct {
	Name  string
	table *Table
}

// NewScanPlan binds a scan to a materialized table.
func NewScanPlan(name string, t *Table) *ScanPlan { return &ScanPlan{Name: name, table: t} }

// Schema implements Plan.
func (s *ScanPlan) Schema() Schema { return s.table.Schema }

// ExecuteBlock implements Plan: stored data is deterministic, so
// every cell blocks into a uniform Vec — no per-world storage at all.
func (s *ScanPlan) ExecuteBlock(ctx *BlockCtx) (*BlockTable, error) {
	nc := len(s.table.Schema)
	out := &BlockTable{Schema: s.table.Schema, Rows: make([]BlockRow, len(s.table.Rows))}
	for r, src := range s.table.Rows {
		row := ctx.newRow(nc)
		for c := range row {
			row[c] = ctx.uniformVec(src[c])
		}
		out.Rows[r] = row
	}
	return out, nil
}

func (s *ScanPlan) String() string { return fmt.Sprintf("Scan(%s)", s.Name) }

// ---------- Unary operators ----------

// SelectPlan filters rows by a predicate.
type SelectPlan struct {
	Child Plan
	Pred  BoundExpr
	Desc  string
}

// Schema implements Plan.
func (p *SelectPlan) Schema() Schema { return p.Child.Schema() }

// ExecuteBlock implements Plan. A predicate over deterministic
// inputs drops or keeps each row for the whole block at once; a
// world-varying predicate (uncertain WHERE) narrows the row's world
// mask instead, keeping the block positional.
func (p *SelectPlan) ExecuteBlock(ctx *BlockCtx) (*BlockTable, error) {
	in, err := p.Child.ExecuteBlock(ctx)
	if err != nil {
		return nil, err
	}
	out := &BlockTable{Schema: in.Schema}
	var sels []Mask
	anyMask := false
	for r, row := range in.Rows {
		m := in.rowMask(r)
		pv, err := p.Pred.EvalBlock(row, m, ctx)
		if err != nil {
			return nil, err
		}
		if pv.uniform {
			keep := false
			if !pv.u.IsNull() {
				if keep, err = pv.u.AsBool(); err != nil {
					return nil, err
				}
			}
			if !keep {
				continue
			}
			out.Rows = append(out.Rows, row)
			sels = append(sels, m)
			anyMask = anyMask || m != nil
			continue
		}
		nm := ctx.newMask(nil)
		kept := 0
		for w := 0; w < ctx.W; w++ {
			if m != nil && !m[w] {
				nm[w] = false
				continue
			}
			keep, notNull, err := pv.laneBool(w)
			if err != nil {
				return nil, err
			}
			nm[w] = notNull && keep
			if nm[w] {
				kept++
			}
		}
		if kept == 0 {
			continue // row survives in no world
		}
		if kept == ctx.W {
			out.Rows = append(out.Rows, row)
			sels = append(sels, nil)
			continue
		}
		out.Rows = append(out.Rows, row)
		sels = append(sels, nm)
		anyMask = true
	}
	if anyMask {
		out.Sel = sels
	}
	return out, nil
}

func (p *SelectPlan) String() string { return fmt.Sprintf("Select(%s)", p.Desc) }

// NamedBound pairs an output column name with its bound expression.
type NamedBound struct {
	Name string
	Expr BoundExpr
}

// ProjectPlan computes output columns from each input row.
type ProjectPlan struct {
	Child   Plan
	Outputs []NamedBound
	schema  Schema
}

// NewProjectPlan validates output-name uniqueness.
func NewProjectPlan(child Plan, outputs []NamedBound) (*ProjectPlan, error) {
	seen := make(map[string]bool, len(outputs))
	s := make(Schema, 0, len(outputs))
	for _, o := range outputs {
		if o.Name == "" {
			return nil, fmt.Errorf("pdb: unnamed projection output")
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("pdb: duplicate output column %q", o.Name)
		}
		seen[o.Name] = true
		s = append(s, Column{Name: o.Name})
	}
	return &ProjectPlan{Child: child, Outputs: outputs, schema: s}, nil
}

// Schema implements Plan.
func (p *ProjectPlan) Schema() Schema { return p.schema }

// ExecuteBlock implements Plan: each output expression evaluates
// once per row over the whole world column.
func (p *ProjectPlan) ExecuteBlock(ctx *BlockCtx) (*BlockTable, error) {
	in, err := p.Child.ExecuteBlock(ctx)
	if err != nil {
		return nil, err
	}
	out := &BlockTable{Schema: p.schema, Rows: make([]BlockRow, len(in.Rows)), Sel: in.Sel}
	for r, row := range in.Rows {
		m := in.rowMask(r)
		nr := ctx.newRow(len(p.Outputs))
		for i, o := range p.Outputs {
			if nr[i], err = o.Expr.EvalBlock(row, m, ctx); err != nil {
				return nil, err
			}
		}
		out.Rows[r] = nr
	}
	return out, nil
}

func (p *ProjectPlan) String() string { return fmt.Sprintf("Project(%s)", p.schema) }

// ExtendPlan is projection that keeps the child's columns and appends
// computed ones — the shape SELECT *, expr AS name produces, and the
// natural encoding of Fig. 1's dependent column list (overload refers
// to capacity and demand computed in the same SELECT).
type ExtendPlan struct {
	Child   Plan
	Outputs []NamedBound
	schema  Schema
}

// NewExtendPlan validates that appended names do not collide with the
// child's schema. Bound expressions for later outputs see earlier
// outputs (left-to-right dependency, as Fig. 1 requires).
func NewExtendPlan(child Plan, outputs []NamedBound) (*ExtendPlan, error) {
	s := child.Schema()
	seen := make(map[string]bool, len(s)+len(outputs))
	for _, c := range s {
		seen[c.Name] = true
	}
	out := append(Schema(nil), s...)
	for _, o := range outputs {
		if o.Name == "" {
			return nil, fmt.Errorf("pdb: unnamed extend output")
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("pdb: duplicate column %q", o.Name)
		}
		seen[o.Name] = true
		out = append(out, Column{Name: o.Name})
	}
	return &ExtendPlan{Child: child, Outputs: outputs, schema: out}, nil
}

// Schema implements Plan.
func (p *ExtendPlan) Schema() Schema { return p.schema }

// ExecuteBlock implements Plan. Rows extend column-wise: for
// each row the appended expressions evaluate left to right over the
// world column, each seeing the columns appended before it — so per
// world, randomness is consumed in exactly per-world interpretation
// order: row by row, expression by expression.
func (p *ExtendPlan) ExecuteBlock(ctx *BlockCtx) (*BlockTable, error) {
	in, err := p.Child.ExecuteBlock(ctx)
	if err != nil {
		return nil, err
	}
	base := len(in.Schema)
	out := &BlockTable{Schema: p.schema, Rows: make([]BlockRow, len(in.Rows)), Sel: in.Sel}
	for r, row := range in.Rows {
		m := in.rowMask(r)
		nr := ctx.newRow(len(p.schema))
		copy(nr, row)
		for i, o := range p.Outputs {
			v, err := o.Expr.EvalBlock(nr[:base+i], m, ctx)
			if err != nil {
				return nil, err
			}
			nr[base+i] = v
		}
		out.Rows[r] = nr
	}
	return out, nil
}

func (p *ExtendPlan) String() string { return fmt.Sprintf("Extend(%s)", p.schema) }

// OrderByPlan sorts rows by a key expression.
type OrderByPlan struct {
	Child Plan
	Key   BoundExpr
	Desc  bool
}

// Schema implements Plan.
func (p *OrderByPlan) Schema() Schema { return p.Child.Schema() }

// rowSorter sorts an index permutation by key value — NULLs first,
// then ascending (or descending with Desc), ties keeping input order
// via sort.Stable.
type rowSorter struct {
	keys []Value
	perm []int
	desc bool
	err  *error
}

func (s *rowSorter) Len() int      { return len(s.perm) }
func (s *rowSorter) Swap(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] }
func (s *rowSorter) Less(i, j int) bool {
	return lessKey(s.keys[s.perm[i]], s.keys[s.perm[j]], s.desc, s.err)
}

// lessKey is the ordering both sort paths (uniform keys, per-world
// lanes) share: NULL keys sort first regardless of direction;
// comparison errors latch into errp.
func lessKey(a, b Value, desc bool, errp *error) bool {
	if a.IsNull() {
		return !b.IsNull()
	}
	if b.IsNull() {
		return false
	}
	c, err := a.Compare(b)
	if err != nil && *errp == nil {
		*errp = err
	}
	if desc {
		return c > 0
	}
	return c < 0
}

// ExecuteBlock implements Plan. With a deterministic key the
// sort happens once for the whole block: a stable sort's output is
// the unique order by (key, input position), so restricting the
// globally sorted order to each world's active rows equals sorting
// that world's rows directly — masks just ride along. World-varying
// keys (or key columns whose kinds could make comparisons
// world-dependent) fall back to sorting each world's lanes with the
// same comparator.
func (p *OrderByPlan) ExecuteBlock(ctx *BlockCtx) (*BlockTable, error) {
	in, err := p.Child.ExecuteBlock(ctx)
	if err != nil {
		return nil, err
	}
	keyVecs := ctx.newRow(len(in.Rows))
	uniform := true
	numeric, str := false, false
	for r, row := range in.Rows {
		v, err := p.Key.EvalBlock(row, in.rowMask(r), ctx)
		if err != nil {
			return nil, err
		}
		keyVecs[r] = v
		if !v.uniform {
			uniform = false
			continue
		}
		switch v.u.Kind() {
		case KindFloat, KindBool:
			numeric = true
		case KindString:
			str = true
		}
	}
	if uniform && !(numeric && str) {
		// Homogeneous deterministic keys: one stable sort serves every
		// world (mixed numeric/string keys could error on pairs a
		// per-world sort never compares, so they take the exact path).
		keys := make([]Value, len(in.Rows))
		perm := make([]int, len(in.Rows))
		for r := range in.Rows {
			keys[r] = keyVecs[r].u
			perm[r] = r
		}
		var sortErr error
		rs := rowSorter{keys: keys, perm: perm, desc: p.Desc, err: &sortErr}
		sort.Stable(&rs)
		if sortErr != nil {
			return nil, sortErr
		}
		out := &BlockTable{Schema: in.Schema, Rows: make([]BlockRow, len(perm))}
		if in.Sel != nil {
			out.Sel = make([]Mask, len(perm))
		}
		for i, idx := range perm {
			out.Rows[i] = in.Rows[idx]
			if in.Sel != nil {
				out.Sel[i] = in.Sel[idx]
			}
		}
		return out, nil
	}
	return p.executeBlockPerWorld(in, keyVecs, ctx)
}

// executeBlockPerWorld sorts each world's active rows by that world's
// key lanes — exactly a per-world sort — and gathers
// the results positionally: output position k holds, for each world,
// that world's k-th sorted row, with a mask marking worlds holding
// fewer rows.
func (p *OrderByPlan) executeBlockPerWorld(in *BlockTable, keyVecs []*Vec, ctx *BlockCtx) (*BlockTable, error) {
	worldOrder := make([][]int, ctx.W)
	keys := make([]Value, 0, len(in.Rows))
	maxN := 0
	for w := 0; w < ctx.W; w++ {
		order := make([]int, 0, len(in.Rows))
		keys = keys[:0]
		for r := range in.Rows {
			if m := in.rowMask(r); m != nil && !m[w] {
				continue
			}
			order = append(order, len(keys))
			keys = append(keys, keyVecs[r].Lane(w))
		}
		// order currently indexes into the world's compacted key list;
		// remap to block rows after sorting.
		rows := make([]int, 0, len(order))
		for r := range in.Rows {
			if m := in.rowMask(r); m != nil && !m[w] {
				continue
			}
			rows = append(rows, r)
		}
		var sortErr error
		rs := rowSorter{keys: keys, perm: order, desc: p.Desc, err: &sortErr}
		sort.Stable(&rs)
		if sortErr != nil {
			return nil, sortErr
		}
		final := make([]int, len(order))
		for i, ki := range order {
			final[i] = rows[ki]
		}
		worldOrder[w] = final
		if len(final) > maxN {
			maxN = len(final)
		}
	}
	nc := len(in.Schema)
	out := &BlockTable{Schema: in.Schema, Rows: make([]BlockRow, maxN)}
	sels := make([]Mask, maxN)
	anyMask := false
	for k := 0; k < maxN; k++ {
		nr := ctx.newRow(nc)
		for c := 0; c < nc; c++ {
			nr[c] = ctx.lanesVec()
		}
		m := ctx.newMask(nil)
		full := true
		for w := 0; w < ctx.W; w++ {
			if k >= len(worldOrder[w]) {
				m[w] = false
				full = false
				continue
			}
			src := worldOrder[w][k]
			for c := 0; c < nc; c++ {
				nr[c].setLane(w, in.Rows[src][c].Lane(w))
			}
		}
		out.Rows[k] = nr
		if full {
			sels[k] = nil
		} else {
			sels[k] = m
			anyMask = true
		}
	}
	if anyMask {
		out.Sel = sels
	}
	return out, nil
}

func (p *OrderByPlan) String() string { return "OrderBy" }

// LimitPlan truncates to the first N rows.
type LimitPlan struct {
	Child Plan
	N     int
}

// Schema implements Plan.
func (p *LimitPlan) Schema() Schema { return p.Child.Schema() }

// ExecuteBlock implements Plan. Without masks this is a slice;
// with masks each world keeps its own first N active rows, so the
// per-row output masks encode world-dependent truncation.
func (p *LimitPlan) ExecuteBlock(ctx *BlockCtx) (*BlockTable, error) {
	in, err := p.Child.ExecuteBlock(ctx)
	if err != nil {
		return nil, err
	}
	n := p.N
	if n < 0 {
		n = 0
	}
	if !in.masked() {
		if n > len(in.Rows) {
			n = len(in.Rows)
		}
		out := &BlockTable{Schema: in.Schema, Rows: in.Rows[:n]}
		if in.Sel != nil {
			out.Sel = in.Sel[:n]
		}
		return out, nil
	}
	taken := make([]int, ctx.W)
	out := &BlockTable{Schema: in.Schema}
	var sels []Mask
	anyMask := false
	for r, row := range in.Rows {
		m := in.rowMask(r)
		nm := ctx.newMask(nil)
		kept, active := 0, 0
		for w := 0; w < ctx.W; w++ {
			if m != nil && !m[w] {
				nm[w] = false
				continue
			}
			active++
			if taken[w] < n {
				taken[w]++
				nm[w] = true
				kept++
			} else {
				nm[w] = false
			}
		}
		if kept == 0 {
			continue
		}
		out.Rows = append(out.Rows, row)
		if kept == ctx.W {
			sels = append(sels, nil)
		} else if kept == active && m != nil {
			sels = append(sels, m)
			anyMask = true
		} else {
			sels = append(sels, nm)
			anyMask = true
		}
	}
	if anyMask {
		out.Sel = sels
	}
	return out, nil
}

func (p *LimitPlan) String() string { return fmt.Sprintf("Limit(%d)", p.N) }

// ---------- Binary operators ----------

// JoinPlan is a nested-loop inner join with an arbitrary bound
// predicate over the concatenated row.
type JoinPlan struct {
	Left, Right Plan
	Pred        BoundExpr // nil = cross join
	schema      Schema
}

// NewJoinPlan builds a join node.
func NewJoinPlan(left, right Plan, pred BoundExpr) *JoinPlan {
	return &JoinPlan{Left: left, Right: right, Pred: pred,
		schema: left.Schema().Concat(right.Schema())}
}

// Schema implements Plan.
func (p *JoinPlan) Schema() Schema { return p.schema }

// ExecuteBlock implements Plan: the nested loop runs over block
// rows (Vec pointers concatenate without copying world lanes), pair
// masks intersect the sides' row masks, and the predicate narrows
// them exactly like SelectPlan.
func (p *JoinPlan) ExecuteBlock(ctx *BlockCtx) (*BlockTable, error) {
	l, err := p.Left.ExecuteBlock(ctx)
	if err != nil {
		return nil, err
	}
	r, err := p.Right.ExecuteBlock(ctx)
	if err != nil {
		return nil, err
	}
	out := &BlockTable{Schema: p.schema}
	var sels []Mask
	anyMask := false
	for li, lr := range l.Rows {
		lm := l.rowMask(li)
		for ri, rr := range r.Rows {
			rm := r.rowMask(ri)
			m := lm
			if rm != nil {
				if lm == nil {
					m = rm
				} else {
					nm := ctx.newMask(lm)
					empty := true
					for w := 0; w < ctx.W; w++ {
						nm[w] = nm[w] && rm[w]
						empty = empty && !nm[w]
					}
					if empty {
						continue // the pair coexists in no world
					}
					m = nm
				}
			}
			joined := ctx.newRow(len(lr) + len(rr))
			copy(joined, lr)
			copy(joined[len(lr):], rr)
			if p.Pred != nil {
				pv, err := p.Pred.EvalBlock(joined, m, ctx)
				if err != nil {
					return nil, err
				}
				if pv.uniform {
					keep := false
					if !pv.u.IsNull() {
						if keep, err = pv.u.AsBool(); err != nil {
							return nil, err
						}
					}
					if !keep {
						continue
					}
				} else {
					nm := ctx.newMask(nil)
					kept := 0
					for w := 0; w < ctx.W; w++ {
						if m != nil && !m[w] {
							nm[w] = false
							continue
						}
						keep, notNull, err := pv.laneBool(w)
						if err != nil {
							return nil, err
						}
						nm[w] = notNull && keep
						if nm[w] {
							kept++
						}
					}
					if kept == 0 {
						continue
					}
					if kept < ctx.W {
						m = nm
					} else {
						m = nil
					}
				}
			}
			out.Rows = append(out.Rows, joined)
			sels = append(sels, m)
			anyMask = anyMask || m != nil
		}
	}
	if anyMask {
		out.Sel = sels
	}
	return out, nil
}

func (p *JoinPlan) String() string { return "Join" }
