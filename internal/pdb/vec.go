package pdb

// Vec is a column of values across the worlds of one execution block:
// the struct-of-arrays cell representation of the columnar executor
// (DESIGN.md, "Columnar PDB execution"). A Vec is either *uniform* —
// one Value shared by every world, the representation of all
// deterministic data (stored tables, literals, parameters, and any
// expression over uniform inputs) — or *materialized*, with one lane
// per world: a kind byte plus a float64 payload (bools store 0/1) and
// a lazily allocated string payload.
//
// The uniform form is what makes world-blocked execution cheap on the
// deterministic parts of a query: a uniform Vec carries no per-world
// storage, and operators evaluate expressions over uniform inputs
// once per block instead of once per world — the succinct-
// representation idea of U-relations applied to the world dimension.
//
// Vecs are owned by the BlockCtx arena that produced them and are
// immutable once an operator has returned them: downstream operators
// share Vec pointers freely and never mutate inputs (the columnar
// analogue of ScanPlan's shared-not-copied row discipline).
type Vec struct {
	uniform bool
	u       Value
	// kind[w] discriminates lane w when materialized (KindNull zero
	// value = NULL, so fresh lanes default to NULL).
	kind []uint8
	// f holds float lanes and bool lanes (0/1).
	f []float64
	// s holds string lanes, allocated only when one exists.
	s []string
}

// Lane returns world w's value.
func (v *Vec) Lane(w int) Value {
	if v.uniform {
		return v.u
	}
	switch k := Kind(v.kind[w]); k {
	case KindNull:
		return Null()
	case KindString:
		return Str(v.s[w])
	default:
		return Value{kind: k, f: v.f[w]}
	}
}

// shape makes v a materialized Vec of w lanes whose kinds and payloads
// are left as its storage last held them.
func (v *Vec) shape(w int) {
	v.uniform = false
	v.u = Value{}
	if cap(v.kind) < w {
		v.kind = make([]uint8, w)
		v.f = make([]float64, w)
	} else {
		v.kind = v.kind[:w]
		v.f = v.f[:w]
	}
	v.s = nil
}

// setLane stores val into world w of a materialized Vec.
func (v *Vec) setLane(w int, val Value) {
	v.kind[w] = uint8(val.kind)
	v.f[w] = val.f
	if val.kind == KindString {
		if v.s == nil {
			v.s = make([]string, len(v.kind))
		}
		v.s[w] = val.s
	}
}

// setFloat stores a float lane without constructing a Value.
func (v *Vec) setFloat(w int, f float64) {
	v.kind[w] = uint8(KindFloat)
	v.f[w] = f
}

// laneNum returns lane w's kind and, for a float or bool lane, its
// numeric payload (bools as 0/1).
func (v *Vec) laneNum(w int) (Kind, float64) {
	if v.uniform {
		return v.u.kind, v.u.f
	}
	return Kind(v.kind[w]), v.f[w]
}

// laneFloat unwraps lane w as a float with Value.AsFloat semantics
// (bools coerce to 0/1). ok=false means NULL; a non-numeric lane
// returns the conversion error.
func (v *Vec) laneFloat(w int) (f float64, ok bool, err error) {
	switch k, f := v.laneNum(w); k {
	case KindNull:
		return 0, false, nil
	case KindString:
		return 0, false, errNotNumeric(k)
	default:
		return f, true, nil
	}
}

// laneBool unwraps lane w as a bool with Value.AsBool semantics
// (floats are truthy when non-zero). ok=false means NULL.
func (v *Vec) laneBool(w int) (b bool, ok bool, err error) {
	switch k, f := v.laneNum(w); k {
	case KindNull:
		return false, false, nil
	case KindString:
		_, err := Value{kind: k}.AsBool()
		return false, false, err
	default:
		return f != 0, true, nil
	}
}

// Mask selects the worlds a block row exists in: nil means every
// world, otherwise mask[w] reports row presence in world w. Masks are
// produced by world-varying selections (WHERE over an uncertain
// value) and are immutable once attached to a row — narrowing always
// builds a new mask from the arena.
type Mask []bool

// countSet returns the number of active worlds under mask, out of w.
func countSet(mask Mask, w int) int {
	if mask == nil {
		return w
	}
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

// BlockRow is one positional row of a block table: one Vec per
// column.
type BlockRow []*Vec

// BlockTable is a world-blocked columnar relation: Rows[r][c] holds
// column c of row r across every world of the block, and Sel (when
// non-nil) carries each row's world mask. It is the intermediate
// representation of the columnar executor; the worker that ran a
// block folds its final BlockTable into per-cell moments (worlds.go).
type BlockTable struct {
	// Schema describes the columns.
	Schema Schema
	// Rows holds the positional rows.
	Rows []BlockRow
	// Sel is nil when every row exists in every world; otherwise
	// Sel[r] is row r's mask (a nil entry again meaning all worlds).
	Sel []Mask
}

// rowMask returns row r's mask (nil = all worlds).
func (t *BlockTable) rowMask(r int) Mask {
	if t.Sel == nil {
		return nil
	}
	return t.Sel[r]
}
