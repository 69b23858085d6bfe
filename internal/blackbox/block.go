package blackbox

import "fmt"

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

// checkBlock panics on an out/seeds length mismatch (an engine
// plumbing bug, like an arity violation).
func checkBlock(name string, out []float64, seeds []uint64) {
	if len(out) != len(seeds) {
		panic(fmt.Sprintf("blackbox: %s: block out has %d slots for %d seeds", name, len(out), len(seeds)))
	}
}
