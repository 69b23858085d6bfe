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
// SUM(...) FROM t form.
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

// blockSumState accumulates one SUM over a block: one lane of (seen,
// sum) per world. NULLs are skipped, as SQL aggregates skip them.
type blockSumState struct {
	seen []bool
	sum  []float64
}

func newBlockSumState(w int) *blockSumState {
	return &blockSumState{seen: make([]bool, w), sum: make([]float64, w)}
}

// addVec folds one row's argument column into the state, over the
// active worlds. NULL lanes are skipped; non-numeric lanes error. A
// materialized column folds straight from its kind and payload lanes:
// this loop is the set-oriented SUM of a data-dependent VG column
// (Fig. 7's UserSelect), so it runs once per row per world.
func (st *blockSumState) addVec(v *Vec, mask Mask, w int) error {
	if !v.uniform {
		kinds, fs := v.kind[:w], v.f[:w]
		seen, sum := st.seen[:w], st.sum[:w]
		for lane, k := range kinds {
			if mask != nil && !mask[lane] {
				continue
			}
			switch Kind(k) {
			case KindFloat, KindBool:
				seen[lane] = true
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
		st.seen[lane] = true
		st.sum[lane] += f
	}
	return nil
}

// resultVec renders the per-world sums, NULL in a world that folded
// no value.
func (st *blockSumState) resultVec(ctx *BlockCtx) *Vec {
	dst := ctx.lanesVec()
	for lane := 0; lane < ctx.W; lane++ {
		if st.seen[lane] {
			dst.setFloat(lane, st.sum[lane])
		}
	}
	return dst
}

// ExecuteBlock implements Plan. Each row's aggregate arguments
// evaluate column-wise in row order, aggregate by aggregate — the
// per-world interpretation order — and fold straight into the states
// under the row's mask. Once a row is folded nothing references the
// Vecs its arguments allocated, so the next row reuses them: a VG
// argument then draws every row into the same cache-hot lanes instead
// of walking a fresh W-lane column per row.
func (p *AggregatePlan) ExecuteBlock(ctx *BlockCtx) (*BlockTable, error) {
	in, err := p.Child.ExecuteBlock(ctx)
	if err != nil {
		return nil, err
	}
	states := make([]*blockSumState, len(p.Aggs))
	for j := range p.Aggs {
		states[j] = newBlockSumState(ctx.W)
	}
	mark := ctx.vecsUsed
	for r, row := range in.Rows {
		m := in.rowMask(r)
		for j, a := range p.Aggs {
			v, err := a.Arg.EvalBlock(row, m, ctx)
			if err != nil {
				return nil, err
			}
			if err := states[j].addVec(v, m, ctx.W); err != nil {
				return nil, err
			}
		}
		ctx.vecsUsed = mark
	}
	row := ctx.newRow(len(states))
	for j, st := range states {
		row[j] = st.resultVec(ctx)
	}
	out := ctx.newTable(p.schema, 1)
	out.Rows[0] = row
	return out, nil
}

func (p *AggregatePlan) String() string {
	return fmt.Sprintf("Aggregate(%s)", p.schema)
}
