package blackbox

import "jigsaw/internal/rng"

// PointBox is the optional bind-once capability of a Box: it splits
// Eval into the work that depends on the arguments alone, done once
// per parameter point, and the draws, done once per sample. Bind
// followed by EvalBound is bit-identical to Eval —
//
//	b.Bind(args, state); v := b.EvalBound(state, r)
//
// returns Eval(args, r)'s bits, takes the same draws from r and leaves
// r in the same state — so a compiled scenario row, which runs one
// generator stream through all of its call sites, can bind a call
// whose arguments are fixed at the point and still draw exactly what
// Eval would (DESIGN.md, "Scenario compilation").
type PointBox interface {
	Box
	// BoundLen is the length of the state Bind writes.
	BoundLen() int
	// Bind writes the argument-only part of Eval into state
	// (len(state) == BoundLen()). It draws nothing and panics on an
	// arity violation, as Eval does.
	Bind(args, state []float64)
	// EvalBound draws one sample from a state Bind wrote.
	EvalBound(state []float64, r *rng.Rand) float64
}
