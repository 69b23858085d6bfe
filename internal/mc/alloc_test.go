package mc

import (
	"fmt"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/rng"
)

// The sweep hot path must be (amortized) allocation-free per reused
// point: fingerprint, probe, mapping application and summary all run
// out of pooled per-worker scratch. This regression test pins the
// budget — the small constant covers pool bookkeeping, nothing
// proportional to the sample count.

// reusedPointAllocBudget is the allowed allocations per reused
// EvaluatePoint: sync.Pool get/put bookkeeping. Anything near the
// sample count (1000) means the scratch wiring regressed.
const reusedPointAllocBudget = 8

func TestEvaluatePointReusedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector (sync.Pool drops puts)")
	}
	e := MustNew(Options{
		Samples: 1000, FingerprintLen: 10, MasterSeed: 0x5161,
		Reuse: true, Index: IndexNormalization, Workers: 1,
	})
	ev := bindNames(blackbox.NewDemand(), "week", "feature")
	// First point registers the basis.
	e.EvaluatePoint(ev, []float64{10, 52})
	p := []float64{30, 52}
	if res, _ := e.EvaluatePoint(ev, p); !res.Reused {
		t.Fatal("second point not reused; test needs a mappable pair")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if res, _ := e.EvaluatePoint(ev, p); !res.Reused {
			t.Fatal("point stopped reusing")
		}
	})
	if allocs > reusedPointAllocBudget {
		t.Errorf("reused EvaluatePoint allocates %.1f, budget %d", allocs, reusedPointAllocBudget)
	}
}

func TestFullSimulationScratchReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector (sync.Pool drops puts)")
	}
	// Unless a basis payload keeps the sample vector, the
	// block-pipeline cold path must be allocation-free at steady
	// state: sample blocks, id blocks, bound arguments and the
	// accumulator all come from pooled scratch. KeepSamples without
	// Reuse keeps no vector, so it draws into scratch too (a fresh
	// vector would be 1 per point). Budget 0: the scratch outlives a
	// GC in the pool's victim cache, and AllocsPerRun floors the mean.
	for _, keep := range []bool{false, true} {
		t.Run(fmt.Sprintf("KeepSamples=%v", keep), func(t *testing.T) {
			e := MustNew(Options{
				Samples: 1000, FingerprintLen: 10, MasterSeed: 0x5161,
				Reuse: false, KeepSamples: keep, Workers: 1,
			})
			ev := bindNames(blackbox.NewDemand(), "week", "feature")
			p := []float64{30, 52}
			e.EvaluatePoint(ev, p) // warm the pool
			allocs := testing.AllocsPerRun(20, func() {
				e.EvaluatePoint(ev, p)
			})
			if allocs != 0 {
				t.Errorf("full simulation allocates %.1f per point, want 0", allocs)
			}
		})
	}
}

// TestBindBoxBlockAllocs pins that a box that is not a DrawBox draws
// a block through the generator the engine lends, with nothing
// allocated per block: SynthBasis, whose Eval reseeds a sub-generator
// of its own, and Overload, which composes two models on one
// generator.
func TestBindBoxBlockAllocs(t *testing.T) {
	ids := make([]int, DefaultBlockSize)
	for i := range ids {
		ids[i] = i
	}
	outs := [][]float64{make([]float64, len(ids))}
	var r rng.Rand
	for _, tc := range []struct {
		box   blackbox.Box
		names []string
		p     []float64
	}{
		{blackbox.NewSynthBasis(5), []string{"point"}, []float64{7}},
		{blackbox.NewOverload(), []string{"week", "p1", "p2"}, []float64{26, 10, 20}},
	} {
		ev := bindNames(tc.box, tc.names...)
		bound := ev.BindPoint(tc.p, nil)
		allocs := testing.AllocsPerRun(20, func() {
			ev.EvalBlockBound(bound, outs, 0x5161, ids, &r)
		})
		if allocs != 0 {
			t.Errorf("%s: a %d-sample block allocates %.1f, want 0", tc.box.Name(), len(ids), allocs)
		}
	}
}

// TestBoundBoxDrawBlockAllocs pins that a BoundBox of a DrawBox,
// Demand and Capacity, applies a block of its warm table's draw
// vectors with nothing allocated.
func TestBoundBoxDrawBlockAllocs(t *testing.T) {
	ids := make([]int, DefaultBlockSize)
	for i := range ids {
		ids[i] = 3 * i
	}
	outs := [][]float64{make([]float64, len(ids))}
	var r rng.Rand
	for _, tc := range []struct {
		box   blackbox.Box
		names []string
		p     []float64
	}{
		{blackbox.NewDemand(), []string{"week", "feature"}, []float64{30, 12}},
		{blackbox.NewCapacity(), []string{"week", "p1", "p2"}, []float64{26, 10, 20}},
	} {
		ev := bindNames(tc.box, tc.names...)
		bound := ev.BindPoint(tc.p, nil)
		ev.EvalBlockBound(bound, outs, 0x5161, ids, &r) // warm the table
		allocs := testing.AllocsPerRun(20, func() {
			ev.EvalBlockBound(bound, outs, 0x5161, ids, &r)
		})
		if allocs != 0 {
			t.Errorf("%s: a warm %d-sample block allocates %.1f, want 0", tc.box.Name(), len(ids), allocs)
		}
	}
}
