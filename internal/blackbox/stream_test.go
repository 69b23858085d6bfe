package blackbox

import (
	"testing"

	"jigsaw/internal/rng"
)

// streamCases pairs each StreamBox kernel with representative
// argument vectors (UserUsage includes the inactive-user case, which
// must not draw).
func streamCases() []struct {
	name string
	box  Box
	args []float64
} {
	return []struct {
		name string
		box  Box
		args []float64
	}{
		{"Demand", NewDemand(), []float64{20, 12}},
		{"Demand/preRelease", NewDemand(), []float64{8, 12}},
		{"Capacity", NewCapacity(), []float64{26, 8, 24}},
		{"UserUsage", UserUsage{}, []float64{30, 4, 2.5, 1.01, 0.2}},
		{"UserUsage/inactive", UserUsage{}, []float64{3, 10, 2.5, 1.01, 0.2}},
	}
}

// advance puts each generator at a distinct mid-stream position, so
// the kernels are exercised on live streams (with Gaussian caches in
// various states), not just fresh seeds.
func advance(rands []rng.Rand, salt uint64) {
	for i := range rands {
		rands[i].Seed(salt<<32 | uint64(i+1))
		for k := 0; k < i%3; k++ {
			rands[i].Normal(0, 1) // odd draws leave a cached variate
		}
	}
}

func TestEvalStreamKernelsBitIdentical(t *testing.T) {
	const w = 33
	for _, tc := range streamCases() {
		if _, ok := tc.box.(StreamBox); !ok {
			t.Fatalf("%s: no stream kernel", tc.name)
		}
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

			want := make([]float64, w)
			for i := range ref {
				if active == nil || active[i] {
					want[i] = tc.box.Eval(tc.args, &ref[i])
				}
			}
			out := make([]float64, w)
			EvalStream(tc.box, tc.args, out, got, active)

			for i := range out {
				if out[i] != want[i] {
					t.Fatalf("%s mask=%t world %d: stream %g != scalar %g", tc.name, withMask, i, out[i], want[i])
				}
				// Post-call stream state must match too (including the
				// Gaussian cache), or later draws would diverge.
				a := ref[i].Normal(0, 1)
				b := got[i].Normal(0, 1)
				if a != b {
					t.Fatalf("%s mask=%t world %d: post-call stream state diverged", tc.name, withMask, i)
				}
			}
		}
	}
}

func TestEvalStreamScalarFallback(t *testing.T) {
	// A box without a native kernel must run through the reference
	// loop with identical results.
	box := Func{FuncName: "lin", NArgs: 1, Fn: func(a []float64, r *rng.Rand) float64 {
		return a[0] + r.Uniform(0, 1)
	}}
	const w = 9
	ref := make([]rng.Rand, w)
	got := make([]rng.Rand, w)
	advance(ref, 0x99)
	advance(got, 0x99)
	want := make([]float64, w)
	for i := range ref {
		want[i] = box.Eval([]float64{2}, &ref[i])
	}
	out := make([]float64, w)
	EvalStream(box, []float64{2}, out, got, nil)
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("world %d: %g != %g", i, out[i], want[i])
		}
	}
}

func TestEvalStreamInactiveWorldsUntouched(t *testing.T) {
	const w = 8
	rands := make([]rng.Rand, w)
	advance(rands, 0x7)
	before := make([][4]uint64, w)
	for i := range rands {
		before[i] = rands[i].State()
	}
	active := make([]bool, w) // nothing active
	out := make([]float64, w)
	EvalStream(NewDemand(), []float64{20, 12}, out, rands, active)
	for i := range rands {
		if rands[i].State() != before[i] {
			t.Fatalf("inactive world %d consumed randomness", i)
		}
		if out[i] != 0 {
			t.Fatalf("inactive world %d written", i)
		}
	}
}

func TestEvalStreamLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	EvalStream(NewDemand(), []float64{1, 2}, make([]float64, 3), make([]rng.Rand, 4), nil)
}
