package blackbox

import (
	"fmt"

	"jigsaw/internal/rng"
)

// StreamBox is the optional continuing-stream block capability of a
// Box: draw one sample per world from that world's own generator,
// continuing each stream exactly where it stands. It is the PDB
// engine's analogue of BlockBox — where BlockBox amortizes per-sample
// setup across freshly seeded generators (the Monte Carlo cold path),
// EvalStream amortizes it across a column of live per-world streams,
// which is what the columnar query executor needs: a world's draws
// must continue the single stream its seed started, or results would
// depend on block boundaries.
//
// The contract is bit-exactness against the scalar loop: for every
// world w with active[w] (a nil active means all worlds),
//
//	out[w] = b.Eval(args, &rands[w])
//
// including generator side effects — the post-call state of rands[w]
// (stream position and the cached Gaussian variate) must equal the
// scalar call's. Inactive worlds must not be touched: no draw, no
// write to out[w].
type StreamBox interface {
	Box
	// EvalStream draws one sample per active world, continuing each
	// world's stream. len(out) must equal len(rands), and active must
	// be nil or at least as long; implementations panic otherwise, as
	// they do on arity violations.
	EvalStream(args []float64, out []float64, rands []rng.Rand, active []bool)
}

// EvalStreamScalar is the reference stream evaluation: a plain loop
// over b.Eval against each world's generator. It defines the
// bit-pattern every EvalStream implementation must reproduce, and
// serves as the fallback for boxes without a native stream kernel.
func EvalStreamScalar(b Box, args []float64, out []float64, rands []rng.Rand, active []bool) {
	checkStream(b.Name(), out, rands, active)
	for w := range rands {
		if active != nil && !active[w] {
			continue
		}
		out[w] = b.Eval(args, &rands[w])
	}
}

// EvalStream dispatches to b's native stream kernel when it has one,
// falling back to the scalar reference loop. Either way the result is
// bit-identical to per-world Eval calls, so callers can adopt the
// stream path unconditionally.
func EvalStream(b Box, args []float64, out []float64, rands []rng.Rand, active []bool) {
	if sb, ok := b.(StreamBox); ok {
		sb.EvalStream(args, out, rands, active)
		return
	}
	EvalStreamScalar(b, args, out, rands, active)
}

// checkStream panics on an out/rands/active length mismatch (an
// engine plumbing bug, like an arity violation).
func checkStream(name string, out []float64, rands []rng.Rand, active []bool) {
	if len(out) != len(rands) {
		panic(fmt.Sprintf("blackbox: %s: stream out has %d slots for %d worlds", name, len(out), len(rands)))
	}
	if active != nil && len(active) < len(rands) {
		panic(fmt.Sprintf("blackbox: %s: stream mask has %d slots for %d worlds", name, len(active), len(rands)))
	}
}

// EvalStream implements StreamBox. Demand's distribution parameters
// depend only on the arguments, so (µ, σ) bind once per column and the
// loop body is a bare cached-pair normal draw — EvalBound, the same
// ops Eval performs, so the stream positions and Gaussian caches stay
// bit-identical.
func (d *Demand) EvalStream(args []float64, out []float64, rands []rng.Rand, active []bool) {
	var state [2]float64
	d.Bind(args, state[:])
	checkStream(d.Name(), out, rands, active)
	for w := range rands {
		if active != nil && !active[w] {
			continue
		}
		out[w] = d.EvalBound(state[:], &rands[w])
	}
}

// EvalStream implements StreamBox: Eval's exact draw sequence per
// world with the argument decode and exponential rate bound once.
func (c *Capacity) EvalStream(args []float64, out []float64, rands []rng.Rand, active []bool) {
	var state [capacityPurchases + 2]float64
	c.Bind(args, state[:])
	checkStream(c.Name(), out, rands, active)
	for w := range rands {
		if active != nil && !active[w] {
			continue
		}
		out[w] = c.EvalBound(state[:], &rands[w])
	}
}

// EvalStream implements StreamBox: the activity test and mean
// (including the expensive growth power) compute once per row-column,
// and the per-world body is a bare LogNormal draw — set-oriented
// amortization without reordering randomness, so the columnar PDB
// path stays bit-identical to per-world interpretation.
func (UserUsage) EvalStream(args []float64, out []float64, rands []rng.Rand, active []bool) {
	checkArity("UserUsage", 5, args)
	checkStream("UserUsage", out, rands, active)
	mean, ok := usageMean(args)
	for w := range rands {
		if active != nil && !active[w] {
			continue
		}
		if ok {
			out[w] = usage(mean, args[4], &rands[w])
		} else {
			out[w] = 0 // an inactive user draws nothing, exactly like Eval
		}
	}
}

var (
	_ StreamBox = (*Demand)(nil)
	_ StreamBox = (*Capacity)(nil)
	_ StreamBox = UserUsage{}

	_ DrawBox = (*Demand)(nil)
	_ DrawBox = (*Capacity)(nil)
)
