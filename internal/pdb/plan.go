package pdb

import "fmt"

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
	out := ctx.newTable(Schema{}, 1)
	out.Rows[0] = ctx.newRow(0)
	return out, nil
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

// ExecuteBlock implements Plan: it emits the stored rows of the chunk
// in flight. Stored data is deterministic, so every cell blocks into a
// uniform Vec — no per-world storage at all.
func (s *ScanPlan) ExecuteBlock(ctx *BlockCtx) (*BlockTable, error) {
	nc := len(s.table.Schema)
	n := len(s.table.Rows)
	src := s.table.Rows[min(ctx.rowLo, n):min(ctx.rowHi, n)]
	out := ctx.newTable(s.table.Schema, len(src))
	for r, cells := range src {
		row := ctx.newRow(nc)
		for c := range row {
			row[c] = ctx.uniformVec(cells[c])
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
	out := ctx.newTable(in.Schema, len(in.Rows))
	out.Rows = out.Rows[:0]
	sels := ctx.maskList(len(in.Rows))
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
	out := ctx.newTable(p.schema, len(in.Rows))
	out.Sel = in.Sel
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
	out := ctx.newTable(p.schema, len(in.Rows))
	out.Sel = in.Sel
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
