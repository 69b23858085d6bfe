package blackbox

import (
	"fmt"

	"jigsaw/internal/rng"
)

// PointBox is the optional bind-once capability of a Box: it splits
// Eval into the work that depends on the arguments alone, done once
// per parameter point or table row, and the draws, done for a block
// of lanes at a time. For every lane j with active[j] (a nil active
// means every lane),
//
//	b.Bind(args, state); b.EvalBound(state, out, rands, active)
//
// writes Eval(args, &rands[j])'s bits to out[j], takes the same draws
// from rands[j] and leaves it in the same state, cached polar variate
// included; a masked lane is neither drawn from nor written. So a
// compiled scenario row, which runs one generator stream per sample
// through all of its call sites, and the PDB, which continues one
// stream per world, can bind a call whose arguments are fixed and
// still draw exactly what Eval would (DESIGN.md, "Scenario
// compilation" and "Columnar PDB execution").
type PointBox interface {
	Box
	// BoundLen is the length of the state Bind writes.
	BoundLen() int
	// Bind writes the argument-only part of Eval into state
	// (len(state) == BoundLen()). It draws nothing and panics on an
	// arity violation, as Eval does.
	Bind(args, state []float64)
	// EvalBound draws one sample per active lane from a state Bind
	// wrote, lane j from rands[j]. len(out) must equal len(rands), and
	// active must be nil or at least as long; it panics otherwise, as
	// it does on an arity violation.
	EvalBound(state, out []float64, rands []rng.Rand, active []bool)
}

// DrawBox is the optional draw/apply capability of a PointBox: it
// splits a lane of EvalBound into the draws, which depend on the
// generator alone, and the arithmetic that combines them with the
// bound state, which draws nothing and runs a block of lanes at a
// time. For any state Bind wrote and any generator state,
//
//	b.Draw(r, d)                            // len(d) == b.Draws()
//	b.Apply(state, d, 0, []int{0}, out[:1]) // out[0] = the sample
//
// writes the bits EvalBound writes to a lane that draws from r, and
// Draw leaves r where EvalBound would, cached polar variate included.
// So a model writes its sample once, in Apply: Demand's and
// Capacity's Eval and EvalBound are Draw then a one-lane Apply.
// Draw consumes the same stream whatever the point, so under common
// random numbers (§3.1) the draws of the sample seeded by σ are one
// vector for every point: its callers draw it once per seed into a
// DrawTable and apply a block of the table's vectors at each point — a
// compiled scenario whose every model call is a bound DrawBox
// (DESIGN.md, "Seed-only rows"), mc's BoundBox and the PDB's fresh
// lane, which a plan takes when the call is each world's one draw.
type DrawBox interface {
	PointBox
	// Draws is the length of the draw vector, at least 1.
	Draws() int
	// Draw fills d (len(d) == Draws()) from r, taking exactly the
	// draws a lane of EvalBound takes.
	Draw(r *rng.Rand, d []float64)
	// Apply combines a state Bind wrote with a block of draw vectors
	// Draw filled: lane j's vector is draws[ids[j]*width:][:Draws()],
	// read in place (width >= Draws(); ids may repeat and come in any
	// order), and its sample goes to out[j]. len(out) must equal
	// len(ids); it panics otherwise. It draws nothing, reads the state
	// and the model constants once per block, and panics on an invalid
	// model constant exactly when a lane's Eval would: once, when the
	// block has a lane.
	Apply(state, draws []float64, width int, ids []int, out []float64)
}

// BlockBox was the block-at-a-time capability of a Box: for a fixed
// argument vector, out[i] = Eval(args, a generator seeded with
// seeds[i]). The DrawBox contract and a DrawTable now serve what it
// served. Nothing in this module implements or calls it. It stays
// declared only because perfbench's counting wrapper names it; it goes
// when the benchmark drops that name.
type BlockBox interface {
	Box
	EvalBlock(args []float64, out []float64, seeds []uint64)
}

// StreamBox was the PDB's continuing-stream capability, which
// PointBox.EvalBound now covers: draw one sample per active world
// from that world's own generator, bit-identical to per-world Eval.
// Nothing in this module implements or calls it. It stays declared
// only because perfbench's counting wrapper names it; it goes when the
// benchmark drops that name.
type StreamBox interface {
	Box
	EvalStream(args []float64, out []float64, rands []rng.Rand, active []bool)
}

// checkLanes panics on an out/rands/active length mismatch (an engine
// plumbing bug, like an arity violation).
func checkLanes(name string, out []float64, rands []rng.Rand, active []bool) {
	if len(out) != len(rands) {
		panic(fmt.Sprintf("blackbox: %s: out has %d lanes for %d generators", name, len(out), len(rands)))
	}
	if active != nil && len(active) < len(rands) {
		panic(fmt.Sprintf("blackbox: %s: mask has %d lanes for %d generators", name, len(active), len(rands)))
	}
}

// laneBlock is the number of lanes a structured model's EvalBound
// draws into its stack block before one Apply.
const laneBlock = 64

// laneIDs holds the draw-vector ids 0 … laneBlock−1 of such a block.
var laneIDs = func() (ids [laneBlock]int) {
	for i := range ids {
		ids[i] = i
	}
	return ids
}()

// activeLanes fills lanes with the next active lanes (active nil =
// every lane) of the n from j on, up to laneBlock of them, and returns
// how many it found and the lane to resume at.
func activeLanes(lanes *[laneBlock]int, j, n int, active []bool) (found, next int) {
	for ; j < n && found < laneBlock; j++ {
		if active == nil || active[j] {
			lanes[found] = j
			found++
		}
	}
	return found, j
}

// applyLanes panics on an out/ids length mismatch, and reports whether
// a DrawBox.Apply has a lane to write.
func applyLanes(name string, ids []int, out []float64) bool {
	if len(out) != len(ids) {
		panic(fmt.Sprintf("blackbox: %s: out has %d lanes for %d draw vectors", name, len(out), len(ids)))
	}
	return len(ids) > 0
}
