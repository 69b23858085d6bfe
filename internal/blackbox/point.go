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

// DrawBox is the optional draw/apply capability of a PointBox: it
// splits EvalBound into the draws, which depend on the generator
// alone, and the arithmetic that combines them with the bound state,
// which draws nothing. For any state Bind wrote and any generator
// state,
//
//	b.Draw(r, d); v := b.Apply(state, d)   // len(d) == b.Draws()
//
// returns EvalBound(state, r)'s bits and leaves r where EvalBound
// would, cached polar variate included. Draw consumes the same
// stream whatever the point, so under common random numbers (§3.1)
// the draws of the sample seeded by σ are one vector for every point:
// a compiled scenario whose every model call is a bound DrawBox draws
// it once per seed and applies it at each point (DESIGN.md,
// "Scenario compilation").
type DrawBox interface {
	PointBox
	// Draws is the length of the draw vector.
	Draws() int
	// Draw fills d (len(d) == Draws()) from r, taking exactly the
	// draws EvalBound takes.
	Draw(r *rng.Rand, d []float64)
	// Apply combines a state Bind wrote with a draw vector Draw
	// filled. It draws nothing, and panics on an invalid model
	// constant as Eval does.
	Apply(state, d []float64) float64
}
