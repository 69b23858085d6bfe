package blackbox

import (
	"testing"

	"jigsaw/internal/rng"
)

// The block pipeline's soundness rests on one property: EvalBlock is
// bit-identical to the reseed-per-sample scalar Eval loop, for every
// model and every block size. A model whose block kernel drifted from
// its scalar form would silently change fingerprints and sweep
// results, so these tests enumerate every native block kernel across
// block sizes {1, 7, 64, 1000}. A box without one is drawn by that
// scalar loop itself.

var blockSizes = []int{1, 7, 64, 1000}

// blockCases enumerates every built-in model with a native block
// kernel, with argument vectors covering its interesting branches.
func blockCases() []struct {
	name string
	box  BlockBox
	args [][]float64
} {
	return []struct {
		name string
		box  BlockBox
		args [][]float64
	}{
		{"Demand", NewDemand(), [][]float64{
			{10, 52}, // pre-release branch
			{30, 12}, // post-release branch
			{0, 0},   // degenerate zero-variance week
			{12, 12}, // boundary week == feature
		}},
		{"Capacity", NewCapacity(), [][]float64{
			{0, 10, 20},
			{15, 10, 20}, // mid-horizon, first purchase may have landed
			{52, 1, 2},   // both purchases long since landed
		}},
	}
}

func TestEvalBlockBitIdenticalToScalar(t *testing.T) {
	for _, tc := range blockCases() {
		t.Run(tc.name, func(t *testing.T) {
			var r rng.Rand
			for _, args := range tc.args {
				for _, n := range blockSizes {
					seeds := make([]uint64, n)
					rng.FillSeeds(0x5161, 0, seeds)

					got := make([]float64, n)
					tc.box.EvalBlock(args, got, seeds)

					for i, seed := range seeds {
						r.Seed(seed)
						want := tc.box.Eval(args, &r)
						if got[i] != want {
							t.Fatalf("args=%v block=%d sample %d: block %v, scalar %v",
								args, n, i, got[i], want)
						}
					}
				}
			}
		})
	}
}

func TestEvalBlockChunkingInvariant(t *testing.T) {
	// Evaluating one seed vector in chunks of any size yields the
	// same samples as one shot — the property that makes the engine's
	// block size a pure performance knob.
	for _, tc := range blockCases() {
		args := tc.args[0]
		seeds := make([]uint64, 100)
		rng.FillSeeds(0x99, 0, seeds)

		whole := make([]float64, len(seeds))
		tc.box.EvalBlock(args, whole, seeds)

		for _, chunk := range []int{1, 7, 33, 100} {
			got := make([]float64, len(seeds))
			for lo := 0; lo < len(seeds); lo += chunk {
				hi := min(lo+chunk, len(seeds))
				tc.box.EvalBlock(args, got[lo:hi], seeds[lo:hi])
			}
			for i := range whole {
				if got[i] != whole[i] {
					t.Fatalf("%s chunk=%d sample %d: %v vs %v", tc.name, chunk, i, got[i], whole[i])
				}
			}
		}
	}
}

func TestEvalBlockArityPanics(t *testing.T) {
	d := NewDemand()
	defer func() {
		if recover() == nil {
			t.Fatal("EvalBlock with wrong arity did not panic")
		}
	}()
	d.EvalBlock([]float64{1}, make([]float64, 1), []uint64{1})
}

func BenchmarkEvalBlockDemand(b *testing.B) {
	d := NewDemand()
	seeds := make([]uint64, 1000)
	rng.FillSeeds(0x5161, 0, seeds)
	out := make([]float64, 1000)
	args := []float64{30, 52}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.EvalBlock(args, out, seeds)
	}
}

func BenchmarkEvalBlockCapacity(b *testing.B) {
	c := NewCapacity()
	seeds := make([]uint64, 1000)
	rng.FillSeeds(0x5161, 0, seeds)
	out := make([]float64, 1000)
	args := []float64{30, 10, 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.EvalBlock(args, out, seeds)
	}
}

func BenchmarkEvalScalarCapacity(b *testing.B) {
	c := NewCapacity()
	seeds := make([]uint64, 1000)
	rng.FillSeeds(0x5161, 0, seeds)
	out := make([]float64, 1000)
	args := []float64{30, 10, 20}
	var r rng.Rand
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k, seed := range seeds {
			r.Seed(seed)
			out[k] = c.Eval(args, &r)
		}
	}
}
