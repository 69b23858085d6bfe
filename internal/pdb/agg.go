package pdb

import (
	"fmt"
	"math"
)

// AggKind enumerates the in-world aggregate functions (SUM over event
// contributions is how Fig. 1's CapacityModel composes its purchases;
// EXPECT and friends, by contrast, aggregate *across* worlds and live
// in the worlds layer).
type AggKind int

const (
	// AggSum is SUM(expr).
	AggSum AggKind = iota
	// AggCount is COUNT(expr) (non-NULL rows) or COUNT(*) with a nil
	// expression.
	AggCount
	// AggAvg is AVG(expr).
	AggAvg
	// AggMin is MIN(expr).
	AggMin
	// AggMax is MAX(expr).
	AggMax
)

// String implements fmt.Stringer.
func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// AggSpec is one aggregate output of an AggregatePlan.
type AggSpec struct {
	Kind AggKind
	// Arg is the aggregated expression; nil only for COUNT(*).
	Arg BoundExpr
	// Name is the output column name.
	Name string
}

// AggregatePlan computes global aggregates over its whole input: one
// output row per world, also over empty input (COUNT 0, the others
// NULL) — the SELECT SUM(...) FROM t form Fig. 7's wrapper runs.
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
		if a.Arg == nil && a.Kind != AggCount {
			return nil, fmt.Errorf("pdb: %s requires an argument", a.Kind)
		}
		seen[a.Name] = true
		s = append(s, Column{Name: a.Name})
	}
	return &AggregatePlan{Child: child, Aggs: aggs, schema: s}, nil
}

// Schema implements Plan.
func (p *AggregatePlan) Schema() Schema { return p.schema }

// blockAggState accumulates one aggregate over a block: one lane of
// (n, sum, min, max) per world. NULLs are skipped, as SQL aggregates
// skip them.
type blockAggState struct {
	kind AggKind
	n    []int
	sum  []float64
	min  []float64
	max  []float64
}

func newBlockAggState(kind AggKind, w int) *blockAggState {
	st := &blockAggState{
		kind: kind,
		n:    make([]int, w),
		sum:  make([]float64, w),
		min:  make([]float64, w),
		max:  make([]float64, w),
	}
	for i := 0; i < w; i++ {
		st.min[i] = math.Inf(1)
		st.max[i] = math.Inf(-1)
	}
	return st
}

// addVec folds one row's argument column into the state, over the
// active worlds. NULL lanes are skipped; non-numeric lanes error.
func (st *blockAggState) addVec(v *Vec, mask Mask, w int) error {
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
		st.n[lane]++
		st.sum[lane] += f
		if f < st.min[lane] {
			st.min[lane] = f
		}
		if f > st.max[lane] {
			st.max[lane] = f
		}
	}
	return nil
}

// addCountStar counts the row in every active world.
func (st *blockAggState) addCountStar(mask Mask, w int) {
	for lane := 0; lane < w; lane++ {
		if mask == nil || mask[lane] {
			st.n[lane]++
		}
	}
}

// resultVec renders the per-world aggregate results: COUNT is the
// count, the others are NULL in a world that folded no value.
func (st *blockAggState) resultVec(ctx *BlockCtx) *Vec {
	dst := ctx.lanesVec()
	for lane := 0; lane < ctx.W; lane++ {
		switch st.kind {
		case AggCount:
			dst.setFloat(lane, float64(st.n[lane]))
		case AggSum:
			if st.n[lane] > 0 {
				dst.setFloat(lane, st.sum[lane])
			}
		case AggAvg:
			if st.n[lane] > 0 {
				dst.setFloat(lane, st.sum[lane]/float64(st.n[lane]))
			}
		case AggMin:
			if st.n[lane] > 0 {
				dst.setFloat(lane, st.min[lane])
			}
		case AggMax:
			if st.n[lane] > 0 {
				dst.setFloat(lane, st.max[lane])
			}
		}
	}
	return dst
}

// ExecuteBlock implements Plan. Each row's aggregate arguments
// evaluate column-wise in row order, aggregate by aggregate — the
// per-world interpretation order — and fold straight into the states
// under the row's mask.
func (p *AggregatePlan) ExecuteBlock(ctx *BlockCtx) (*BlockTable, error) {
	in, err := p.Child.ExecuteBlock(ctx)
	if err != nil {
		return nil, err
	}
	states := make([]*blockAggState, len(p.Aggs))
	for j, a := range p.Aggs {
		states[j] = newBlockAggState(a.Kind, ctx.W)
	}
	for r, row := range in.Rows {
		m := in.rowMask(r)
		for j, a := range p.Aggs {
			if a.Arg == nil {
				states[j].addCountStar(m, ctx.W)
				continue
			}
			v, err := a.Arg.EvalBlock(row, m, ctx)
			if err != nil {
				return nil, err
			}
			if err := states[j].addVec(v, m, ctx.W); err != nil {
				return nil, err
			}
		}
	}
	row := ctx.newRow(len(states))
	for j, st := range states {
		row[j] = st.resultVec(ctx)
	}
	return &BlockTable{Schema: p.schema, Rows: []BlockRow{row}}, nil
}

func (p *AggregatePlan) String() string {
	return fmt.Sprintf("Aggregate(%s)", p.schema)
}
