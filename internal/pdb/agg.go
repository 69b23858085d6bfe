package pdb

import "fmt"

// AggSpec is one SUM(expr) output of an AggregatePlan. SUM is the one
// in-world aggregate a caller builds (SUM over event contributions is
// how Fig. 1's CapacityModel composes its purchases; EXPECT and
// friends, by contrast, aggregate *across* worlds and live in the
// worlds layer).
type AggSpec struct {
	// Arg is the summed expression.
	Arg BoundExpr
	// Name is the output column name.
	Name string
}

// AggregatePlan computes global sums over its whole input: one output
// row per world, also over empty input (every SUM NULL) — the SELECT
// SUM(...) FROM t form. Over a block's chunks of scan rows it folds
// each chunk into the same sums and emits its row after the last.
type AggregatePlan struct {
	Child  Plan
	Aggs   []AggSpec
	schema Schema
}

// NewAggregatePlan validates the aggregates' names and arguments.
func NewAggregatePlan(child Plan, aggs []AggSpec) (*AggregatePlan, error) {
	seen := make(map[string]bool, len(aggs))
	s := make(Schema, 0, len(aggs))
	for _, a := range aggs {
		if a.Name == "" || seen[a.Name] {
			return nil, fmt.Errorf("pdb: bad aggregate name %q", a.Name)
		}
		if a.Arg == nil {
			return nil, fmt.Errorf("pdb: SUM %q requires an argument", a.Name)
		}
		seen[a.Name] = true
		s = append(s, Column{Name: a.Name})
	}
	return &AggregatePlan{Child: child, Aggs: aggs, schema: s}, nil
}

// Schema implements Plan.
func (p *AggregatePlan) Schema() Schema { return p.schema }

// addSum folds one row's argument column into the per-world sums in
// dst, over the active worlds: a lane that folds a value turns from
// NULL to FLOAT, so a world that folds none keeps a NULL sum. NULL
// lanes are skipped, as SQL aggregates skip them; non-numeric lanes
// error. A materialized column folds straight from its kind and
// payload lanes: this loop is the set-oriented SUM of a data-dependent
// VG column (Fig. 7's UserSelect), so it runs once per row per world.
func addSum(dst, v *Vec, mask Mask, w int) error {
	kind, sum := dst.kind[:w], dst.f[:w]
	if !v.uniform {
		kinds, fs := v.kind[:w], v.f[:w]
		for lane, k := range kinds {
			if mask != nil && !mask[lane] {
				continue
			}
			switch Kind(k) {
			case KindFloat, KindBool:
				kind[lane] = uint8(KindFloat)
				sum[lane] += fs[lane]
			case KindNull:
			default:
				_, _, err := v.laneFloat(lane)
				return err
			}
		}
		return nil
	}
	for lane := 0; lane < w; lane++ {
		if mask != nil && !mask[lane] {
			continue
		}
		f, ok, err := v.laneFloat(lane)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		kind[lane] = uint8(KindFloat)
		sum[lane] += f
	}
	return nil
}

// ExecuteBlock implements Plan. Each row's aggregate arguments
// evaluate column-wise in row order, aggregate by aggregate — the
// per-world interpretation order — and fold straight into the result
// Vecs under the row's mask. The result row is the block context's
// (sumRow), kept across chunks outside the arena; once a row is folded
// nothing references the Vecs its arguments allocated, so the next row
// reuses them: a VG argument then draws every row into the same
// cache-hot lanes instead of walking a fresh W-lane column per row.
// Before the block's last chunk it emits no row.
func (p *AggregatePlan) ExecuteBlock(ctx *BlockCtx) (*BlockTable, error) {
	in, err := p.Child.ExecuteBlock(ctx)
	if err != nil {
		return nil, err
	}
	sums := ctx.sumRow(len(p.Aggs))
	mark, umark := ctx.vecsUsed, ctx.uniformsUsed
	for r, row := range in.Rows {
		m := in.rowMask(r)
		for j, a := range p.Aggs {
			v, err := a.Arg.EvalBlock(row, m, ctx)
			if err != nil {
				return nil, err
			}
			if err := addSum(sums[j], v, m, ctx.W); err != nil {
				return nil, err
			}
		}
		ctx.vecsUsed, ctx.uniformsUsed = mark, umark
	}
	if !ctx.lastChunk() {
		return ctx.newTable(p.schema, 0), nil
	}
	out := ctx.newTable(p.schema, 1)
	out.Rows[0] = sums
	return out, nil
}

func (p *AggregatePlan) String() string {
	return fmt.Sprintf("Aggregate(%s)", p.schema)
}
