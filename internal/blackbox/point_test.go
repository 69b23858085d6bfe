package blackbox

import (
	"math"
	"strings"
	"testing"

	"jigsaw/internal/rng"
)

// evalBound1 draws one sample from a state Bind wrote, through a block
// of one lane on r's stream, and leaves r where the lane's draws leave
// it.
func evalBound1(b PointBox, state []float64, r *rng.Rand) float64 {
	var out [1]float64
	lane := []rng.Rand{*r}
	b.EvalBound(state, out[:], lane, nil)
	*r = lane[0]
	return out[0]
}

// TestPointBoxMatchesEval pins the PointBox contract for every
// implementer: over weeks before and after joins, releases and
// purchases, and the block tests' seeds, Bind followed by one
// EvalBound over a block of lanes writes each lane Eval's bits, leaves
// each lane's generator in Eval's state, and leaves the same cached
// polar variate (the next StdNormal matches). Half the lanes start on
// a generator that already holds a cached variate, as a call site deep
// in a scenario row sees it. One state buffer is rebound across the
// grid, poisoned first, so a Bind that leaves a slot stale or
// unwritten shows.
func TestPointBoxMatchesEval(t *testing.T) {
	cases := []struct {
		box  PointBox
		args [][]float64
	}{
		{NewDemand(), [][]float64{
			{0, 0}, {10, 52}, {12, 12}, {13, 12}, {30, 12}, {52, 36}, {104, 44},
		}},
		{NewCapacity(), [][]float64{
			{0, 10, 20}, {11, 10, 20}, {15, 10, 20}, {26, 10, 20}, {52, 1, 2}, {4, 52, 0},
		}},
		{NewUserSelection(64, 0xabcd), [][]float64{
			{-1}, {0}, {7}, {26}, {51}, {52}, {104},
		}},
		// 240, 483 and 601 active users: one part-full chunk of
		// EvalBound's 256, then odd counts whose last chunk is part full.
		{NewUserSelection(601, 0x77), [][]float64{{20}, {40}, {104}}},
		{UserUsage{}, [][]float64{
			{30, 4, 2.5, 1.01, 0.2}, {4, 4, 2.5, 1.01, 0.2}, {3, 10, 2.5, 1.01, 0.2}, {60, 0, 0, 1.02, 0.1},
		}},
	}
	seeds := sampleSeeds(0x5161, 200)
	bits := math.Float64bits
	want := make([]rng.Rand, 2*len(seeds))
	got := make([]rng.Rand, len(want))
	out := make([]float64, len(want))
	for _, tc := range cases {
		name := tc.box.Name()
		state := make([]float64, tc.box.BoundLen())
		for i := range state {
			state[i] = math.NaN()
		}
		for _, args := range tc.args {
			for j := range want {
				want[j].Seed(seeds[j/2])
				if j%2 == 1 {
					want[j].StdNormal()
				}
				got[j] = want[j]
			}
			tc.box.Bind(args, state)
			tc.box.EvalBound(state, out, got, nil)
			for j := range want {
				if w := tc.box.Eval(args, &want[j]); bits(w) != bits(out[j]) {
					t.Fatalf("%s%v lane %d: EvalBound = %v, Eval = %v", name, args, j, out[j], w)
				}
				if want[j] != got[j] || bits(want[j].StdNormal()) != bits(got[j].StdNormal()) {
					t.Fatalf("%s%v lane %d: generator differs after EvalBound", name, args, j)
				}
			}
		}
		func() {
			defer func() {
				if v := recover(); v == nil || !strings.Contains(v.(string), "expects") {
					t.Fatalf("%s: Bind with the wrong arity recovered %v, want an arity panic", name, v)
				}
			}()
			tc.box.Bind(make([]float64, tc.box.Arity()+1), state)
		}()
	}
}

// laneCases pairs each PointBox with representative argument vectors
// (UserUsage includes a user who has not joined, who must not draw).
func laneCases() []struct {
	name string
	box  PointBox
	args []float64
} {
	return []struct {
		name string
		box  PointBox
		args []float64
	}{
		{"Demand", NewDemand(), []float64{20, 12}},
		{"Demand/preRelease", NewDemand(), []float64{8, 12}},
		{"Capacity", NewCapacity(), []float64{26, 8, 24}},
		{"UserSelection", NewUserSelection(40, 3), []float64{30}},
		{"UserSelection/chunks", NewUserSelection(601, 3), []float64{104}},
		{"UserUsage", UserUsage{}, []float64{30, 4, 2.5, 1.01, 0.2}},
		{"UserUsage/inactive", UserUsage{}, []float64{3, 10, 2.5, 1.01, 0.2}},
	}
}

// advance puts each generator at a distinct mid-stream position, so
// the lanes are drawn from live streams (with Gaussian caches in
// various states), not just fresh seeds.
func advance(rands []rng.Rand, salt uint64) {
	for i := range rands {
		rands[i].Seed(salt<<32 | uint64(i+1))
		for k := 0; k < i%3; k++ {
			rands[i].Normal(0, 1) // odd draws leave a cached variate
		}
	}
}

// TestEvalBoundMaskedLanes: on live streams, with and without a mask,
// every active lane holds Eval's bits and its generator Eval's state,
// and every masked lane keeps both its output slot and its generator
// as they were.
func TestEvalBoundMaskedLanes(t *testing.T) {
	const w = 33
	const sentinel = -12345.0
	for _, tc := range laneCases() {
		state := make([]float64, tc.box.BoundLen())
		tc.box.Bind(tc.args, state)
		for _, withMask := range []bool{false, true} {
			var active []bool
			if withMask {
				active = make([]bool, w)
				for i := range active {
					active[i] = i%3 != 1
				}
			}
			ref := make([]rng.Rand, w)
			got := make([]rng.Rand, w)
			advance(ref, 0x51)
			advance(got, 0x51)
			out := make([]float64, w)
			for i := range out {
				out[i] = sentinel
			}
			tc.box.EvalBound(state, out, got, active)
			for i := range out {
				want := sentinel
				if active == nil || active[i] {
					want = tc.box.Eval(tc.args, &ref[i])
				}
				if math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("%s mask=%t lane %d: EvalBound %g, want %g", tc.name, withMask, i, out[i], want)
				}
				// The post-call stream state must match too (including
				// the Gaussian cache), or later draws would diverge.
				if ref[i] != got[i] {
					t.Fatalf("%s mask=%t lane %d: generator state diverged", tc.name, withMask, i)
				}
			}
		}
	}
}

// TestEvalBoundLengthMismatchPanics: an out or mask shorter than the
// lanes is a plumbing bug, and every PointBox panics on it.
func TestEvalBoundLengthMismatchPanics(t *testing.T) {
	for _, tc := range laneCases() {
		state := make([]float64, tc.box.BoundLen())
		tc.box.Bind(tc.args, state)
		for _, shape := range []struct {
			out    int
			active []bool
		}{{3, nil}, {4, make([]bool, 3)}} {
			func() {
				defer func() {
					if v := recover(); v == nil || !strings.Contains(v.(string), tc.box.Name()) {
						t.Fatalf("%s: out %d, mask %d for 4 lanes recovered %v, want a panic naming the box",
							tc.name, shape.out, len(shape.active), v)
					}
				}()
				tc.box.EvalBound(state, make([]float64, shape.out), make([]rng.Rand, 4), shape.active)
			}()
		}
	}
}

// TestBindArityPanics: Bind, which mc's BoundBox and the PDB call
// without Eval, panics on a wrong arity as Eval does.
func TestBindArityPanics(t *testing.T) {
	for _, b := range []PointBox{NewDemand(), NewCapacity(), NewUserSelection(4, 1), UserUsage{}} {
		for _, n := range []int{b.Arity() - 1, b.Arity() + 1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: Bind of %d args did not panic", b.Name(), n)
					}
				}()
				b.Bind(make([]float64, n), make([]float64, b.BoundLen()))
			}()
		}
	}
}

// TestUserSelectionEvalBoundAllocs: a block of lanes over more users
// than one chunk allocates nothing; the chunk's variates live on the
// stack.
func TestUserSelectionEvalBoundAllocs(t *testing.T) {
	box := NewUserSelection(601, 9)
	state := make([]float64, box.BoundLen())
	box.Bind([]float64{104}, state)
	rands := make([]rng.Rand, 8)
	advance(rands, 0x52)
	out := make([]float64, len(rands))
	if n := testing.AllocsPerRun(20, func() { box.EvalBound(state, out, rands, nil) }); n != 0 {
		t.Fatalf("UserSelection.EvalBound allocates %.1f per block, want 0", n)
	}
}

// BenchmarkUserSelectionEvalBound draws a block of 64 lanes over 200
// users, every one active (perfbench's graph_users dataset size).
func BenchmarkUserSelectionEvalBound(b *testing.B) {
	box := NewUserSelection(200, 42)
	state := make([]float64, box.BoundLen())
	box.Bind([]float64{104}, state)
	rands := make([]rng.Rand, 64)
	advance(rands, 0x53)
	out := make([]float64, len(rands))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		box.EvalBound(state, out, rands, nil)
	}
}
