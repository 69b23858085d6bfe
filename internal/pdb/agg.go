package pdb

import (
	"fmt"
	"math"
	"strings"
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

// ParseAggKind resolves an aggregate name.
func ParseAggKind(name string) (AggKind, bool) {
	switch strings.ToUpper(name) {
	case "SUM":
		return AggSum, true
	case "COUNT":
		return AggCount, true
	case "AVG":
		return AggAvg, true
	case "MIN":
		return AggMin, true
	case "MAX":
		return AggMax, true
	default:
		return 0, false
	}
}

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

// AggSpec is one aggregate output of a GroupPlan.
type AggSpec struct {
	Kind AggKind
	// Arg is the aggregated expression; nil only for COUNT(*).
	Arg BoundExpr
	// Name is the output column name.
	Name string
}

// aggState accumulates one aggregate within one group.
type aggState struct {
	kind     AggKind
	n        int
	sum      float64
	min, max float64
}

func newAggState(kind AggKind) *aggState {
	return &aggState{kind: kind, min: math.Inf(1), max: math.Inf(-1)}
}

func (a *aggState) add(v Value) error {
	if v.IsNull() {
		return nil // SQL aggregates skip NULLs
	}
	f, err := v.AsFloat()
	if err != nil {
		return err
	}
	a.n++
	a.sum += f
	if f < a.min {
		a.min = f
	}
	if f > a.max {
		a.max = f
	}
	return nil
}

// addCountStar counts a row unconditionally (COUNT(*)).
func (a *aggState) addCountStar() { a.n++ }

func (a *aggState) result() Value {
	switch a.kind {
	case AggCount:
		return Float(float64(a.n))
	case AggSum:
		if a.n == 0 {
			return Null()
		}
		return Float(a.sum)
	case AggAvg:
		if a.n == 0 {
			return Null()
		}
		return Float(a.sum / float64(a.n))
	case AggMin:
		if a.n == 0 {
			return Null()
		}
		return Float(a.min)
	case AggMax:
		if a.n == 0 {
			return Null()
		}
		return Float(a.max)
	default:
		return Null()
	}
}

// GroupPlan groups rows by key expressions and computes aggregates per
// group. With no keys, the whole input is one group and the output is
// a single row (the global-aggregate form). Group order is
// first-appearance, keeping per-world outputs positionally aligned
// across worlds (the tuple-bundle discipline the worlds layer's
// estimator relies on).
type GroupPlan struct {
	Child  Plan
	Keys   []NamedBound
	Aggs   []AggSpec
	schema Schema
}

// NewGroupPlan validates output-name uniqueness across keys and
// aggregates.
func NewGroupPlan(child Plan, keys []NamedBound, aggs []AggSpec) (*GroupPlan, error) {
	seen := make(map[string]bool)
	s := make(Schema, 0, len(keys)+len(aggs))
	for _, k := range keys {
		if k.Name == "" || seen[k.Name] {
			return nil, fmt.Errorf("pdb: bad group key name %q", k.Name)
		}
		seen[k.Name] = true
		s = append(s, Column{Name: k.Name})
	}
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
	return &GroupPlan{Child: child, Keys: keys, Aggs: aggs, schema: s}, nil
}

// Schema implements Plan.
func (p *GroupPlan) Schema() Schema { return p.schema }

// blockAggState is the vectorized form of aggState: one lane of
// (n, sum, min, max) per world, updated with exactly aggState.add's
// operations per world so results stay bit-identical.
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

// addVec folds one member row's argument column into the state, over
// the active worlds. NULL lanes are skipped; non-numeric lanes error,
// as aggState.add does.
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

// resultVec renders the per-world aggregate results (aggState.result
// lane-wise).
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

// ExecuteBlock implements Plan. Keys and aggregate arguments
// evaluate column-wise per row (keys first, then arguments — the
// per-world row order); with deterministic keys and full masks the
// grouping itself happens once per block and each aggregate folds a
// whole world column per member row. World-varying keys or masked
// inputs fall back to grouping each world separately over the
// already-evaluated columns (no re-execution, no re-draws).
func (p *GroupPlan) ExecuteBlock(ctx *BlockCtx) (*BlockTable, error) {
	in, err := p.Child.ExecuteBlock(ctx)
	if err != nil {
		return nil, err
	}
	nk, na := len(p.Keys), len(p.Aggs)
	keyV := ctx.newRow(len(in.Rows) * nk)
	argV := ctx.newRow(len(in.Rows) * na)
	keysUniform := true
	for r, row := range in.Rows {
		m := in.rowMask(r)
		for i, k := range p.Keys {
			v, err := k.Expr.EvalBlock(row, m, ctx)
			if err != nil {
				return nil, err
			}
			keyV[r*nk+i] = v
			if !v.uniform {
				keysUniform = false
			}
		}
		for j, a := range p.Aggs {
			if a.Arg == nil {
				continue
			}
			v, err := a.Arg.EvalBlock(row, m, ctx)
			if err != nil {
				return nil, err
			}
			argV[r*na+j] = v
		}
	}
	if nk > 0 && (!keysUniform || in.masked()) {
		return p.groupPerWorld(in, keyV, argV, ctx)
	}

	// Native path: grouping is world-invariant (no keys, or uniform
	// keys over unmasked rows), so group discovery runs once and the
	// aggregates are pure column folds.
	type blockGroup struct {
		keyVals []Value
		states  []*blockAggState
	}
	newGroup := func(keyVals []Value) *blockGroup {
		g := &blockGroup{keyVals: keyVals, states: make([]*blockAggState, na)}
		for j, a := range p.Aggs {
			g.states[j] = newBlockAggState(a.Kind, ctx.W)
		}
		return g
	}
	var order []*blockGroup
	groups := make(map[string]*blockGroup)
	for r := range in.Rows {
		m := in.rowMask(r)
		var g *blockGroup
		if nk == 0 {
			if len(order) == 0 {
				order = append(order, newGroup(nil))
			}
			g = order[0]
		} else {
			keyVals := make([]Value, nk)
			var kb strings.Builder
			for i := 0; i < nk; i++ {
				keyVals[i] = keyV[r*nk+i].u
				kb.WriteString(keyVals[i].String())
				kb.WriteByte('\x00')
			}
			key := kb.String()
			var ok bool
			if g, ok = groups[key]; !ok {
				g = newGroup(keyVals)
				groups[key] = g
				order = append(order, g)
			}
		}
		for j, a := range p.Aggs {
			if a.Arg == nil {
				g.states[j].addCountStar(m, ctx.W)
				continue
			}
			if err := g.states[j].addVec(argV[r*na+j], m, ctx.W); err != nil {
				return nil, err
			}
		}
	}
	if nk == 0 && len(order) == 0 {
		// Global aggregate over empty input still yields one row.
		order = append(order, newGroup(nil))
	}
	out := &BlockTable{Schema: p.schema, Rows: make([]BlockRow, 0, len(order))}
	for _, g := range order {
		row := ctx.newRow(nk + na)
		for i := 0; i < nk; i++ {
			row[i] = ctx.uniformVec(g.keyVals[i])
		}
		for j, st := range g.states {
			row[nk+j] = st.resultVec(ctx)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// groupPerWorld groups each world separately over the pre-evaluated
// key and argument columns: first-appearance order among that world's
// active rows, per-world aggState updates, and a positional gather of
// the per-world group lists into a masked block table.
func (p *GroupPlan) groupPerWorld(in *BlockTable, keyV, argV []*Vec, ctx *BlockCtx) (*BlockTable, error) {
	nk, na := len(p.Keys), len(p.Aggs)
	type pwGroup struct {
		keyVals []Value
		states  []*aggState
	}
	worldGroups := make([][]*pwGroup, ctx.W)
	maxG := 0
	for w := 0; w < ctx.W; w++ {
		var order []*pwGroup
		groups := make(map[string]*pwGroup)
		for r := range in.Rows {
			if m := in.rowMask(r); m != nil && !m[w] {
				continue
			}
			keyVals := make([]Value, nk)
			var kb strings.Builder
			for i := 0; i < nk; i++ {
				keyVals[i] = keyV[r*nk+i].Lane(w)
				kb.WriteString(keyVals[i].String())
				kb.WriteByte('\x00')
			}
			key := kb.String()
			g, ok := groups[key]
			if !ok {
				g = &pwGroup{keyVals: keyVals, states: make([]*aggState, na)}
				for j, a := range p.Aggs {
					g.states[j] = newAggState(a.Kind)
				}
				groups[key] = g
				order = append(order, g)
			}
			for j, a := range p.Aggs {
				if a.Arg == nil {
					g.states[j].addCountStar()
					continue
				}
				if err := g.states[j].add(argV[r*na+j].Lane(w)); err != nil {
					return nil, err
				}
			}
		}
		worldGroups[w] = order
		if len(order) > maxG {
			maxG = len(order)
		}
	}
	out := &BlockTable{Schema: p.schema, Rows: make([]BlockRow, maxG)}
	sels := make([]Mask, maxG)
	anyMask := false
	for k := 0; k < maxG; k++ {
		row := ctx.newRow(nk + na)
		for c := range row {
			row[c] = ctx.lanesVec()
		}
		m := ctx.newMask(nil)
		full := true
		for w := 0; w < ctx.W; w++ {
			if k >= len(worldGroups[w]) {
				m[w] = false
				full = false
				continue
			}
			g := worldGroups[w][k]
			for i := 0; i < nk; i++ {
				row[i].setLane(w, g.keyVals[i])
			}
			for j, st := range g.states {
				row[nk+j].setLane(w, st.result())
			}
		}
		out.Rows[k] = row
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

func (p *GroupPlan) String() string {
	return fmt.Sprintf("GroupBy(keys=%d, aggs=%d)", len(p.Keys), len(p.Aggs))
}
