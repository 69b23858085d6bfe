package blackbox

import (
	"math"
	"strings"
	"testing"

	"jigsaw/internal/rng"
)

// TestPointBoxMatchesEval pins the PointBox contract for every
// implementer: over weeks before and after joins, releases and
// purchases, and the block tests' seeds, Bind followed by EvalBound
// returns Eval's bits, leaves the generator in Eval's state, and
// leaves the same cached polar variate (the next StdNormal matches).
// Each case runs on a fresh generator and on one that already holds a
// cached variate, as a call site deep in a scenario row sees it. One
// state buffer is rebound across the grid, poisoned first, so a Bind
// that leaves a slot stale or unwritten shows.
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
	}
	seeds := make([]uint64, 200)
	rng.FillSeeds(0x5161, 0, seeds)
	bits := math.Float64bits
	for _, tc := range cases {
		name := tc.box.Name()
		state := make([]float64, tc.box.BoundLen())
		for i := range state {
			state[i] = math.NaN()
		}
		for _, args := range tc.args {
			tc.box.Bind(args, state)
			for _, seed := range seeds {
				for _, cached := range []bool{false, true} {
					var want, got rng.Rand
					want.Seed(seed)
					got.Seed(seed)
					if cached {
						want.StdNormal()
						got.StdNormal()
					}
					w, g := tc.box.Eval(args, &want), tc.box.EvalBound(state, &got)
					if bits(w) != bits(g) {
						t.Fatalf("%s%v seed %#x (cached %v): EvalBound = %v, Eval = %v", name, args, seed, cached, g, w)
					}
					if want.State() != got.State() || bits(want.StdNormal()) != bits(got.StdNormal()) {
						t.Fatalf("%s%v seed %#x (cached %v): generator differs after EvalBound", name, args, seed, cached)
					}
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
