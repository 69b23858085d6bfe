package blackbox

import (
	"fmt"

	"jigsaw/internal/rng"
)

// BlockBox is the optional block-at-a-time capability of a Box: for a
// fixed argument vector, draw one sample per seed with the per-sample
// setup (arity check, argument decoding, distribution parameters)
// amortized across the block. EvalBlock preserves the scalar seeding
// discipline exactly — out[i] is bit-identical to
//
//	r.Seed(seeds[i]); out[i] = b.Eval(args, r)
//
// so the Monte Carlo engine can mix block and scalar evaluation
// freely: fingerprints, basis matches and sweep results never depend
// on block boundaries.
type BlockBox interface {
	Box
	// EvalBlock writes one sample per seed into out. len(out) must
	// equal len(seeds); implementations panic otherwise, as they do on
	// arity violations.
	EvalBlock(args []float64, out []float64, seeds []uint64)
}

// EvalBlockScalar is the reference block evaluation: a reseed-per-
// sample loop over b.Eval. It defines the bit-pattern every EvalBlock
// implementation must reproduce, and serves as the fallback for boxes
// without a native block kernel.
func EvalBlockScalar(b Box, args []float64, out []float64, seeds []uint64) {
	checkBlock(b.Name(), out, seeds)
	var r rng.Rand
	for i, seed := range seeds {
		r.Seed(seed)
		out[i] = b.Eval(args, &r)
	}
}

// checkBlock panics on an out/seeds length mismatch (an engine
// plumbing bug, like an arity violation).
func checkBlock(name string, out []float64, seeds []uint64) {
	if len(out) != len(seeds) {
		panic(fmt.Sprintf("blackbox: %s: block out has %d slots for %d seeds", name, len(out), len(seeds)))
	}
}

// scalarBlock adapts any Box to BlockBox through EvalBlockScalar.
type scalarBlock struct {
	Box
}

// EvalBlock implements BlockBox via the scalar reference loop.
func (s scalarBlock) EvalBlock(args []float64, out []float64, seeds []uint64) {
	EvalBlockScalar(s.Box, args, out, seeds)
}

// AsBlock returns b's block capability: b itself when it implements
// BlockBox natively, otherwise a scalar-fallback adapter. Either way
// the result's EvalBlock is bit-identical to the reseed-per-sample
// Eval loop, so callers can adopt the block path unconditionally.
func AsBlock(b Box) BlockBox {
	if bb, ok := b.(BlockBox); ok {
		return bb
	}
	return scalarBlock{b}
}
