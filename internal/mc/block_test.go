package mc

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/core"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
)

// The block pipeline's engine-level guarantee: the block size is a
// pure performance choice. Sweep results — summaries, reuse decisions,
// store statistics — are bit-identical for every block size, every
// worker count, and for binder and plain evaluators alike.

// mustNewBlockSize is MustNew with the engine drawing bs samples per
// block instead of DefaultBlockSize.
func mustNewBlockSize(opts Options, bs int) *Engine {
	e := MustNew(opts)
	e.blockSize = bs
	return e
}

// fingerprintOf computes the fingerprint of f at p — the first m
// simulation rounds (§3.1) — through the engine's own fill path.
func fingerprintOf(e *Engine, f PointEval, p []float64) core.Fingerprint {
	sc := e.scratches.Get()
	defer e.scratches.Put(sc)
	fp := make(core.Fingerprint, e.opts.FingerprintLen)
	e.drawRows(f, p, [][]float64{fp}, 0, len(fp), sc)
	return fp
}

// blockSweepSpace is a space whose sweep exercises hits, misses and
// both Demand branches.
func blockSweepSpace(t *testing.T) *param.Space {
	t.Helper()
	wk, err := param.Range("current_week", 0, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := param.Range("feature_release", 0, 24, 8)
	if err != nil {
		t.Fatal(err)
	}
	return param.MustSpace(wk, fr)
}

func TestSweepBlockSizeInvariance(t *testing.T) {
	space := blockSweepSpace(t)
	ev := MustBindBox(blackbox.NewDemand(), space, "current_week", "feature_release")

	base := Options{
		Samples: 500, FingerprintLen: 10, MasterSeed: 0x5161,
		Reuse: true, Index: IndexNormalization, Workers: 1,
	}
	ref := MustNew(base) // DefaultBlockSize
	refRes, refStats, err := ref.Sweep(ev)
	if err != nil {
		t.Fatal(err)
	}

	for _, bs := range []int{1, 7, 64, 500, 1000} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("block=%d/workers=%d", bs, workers), func(t *testing.T) {
				opts := base
				opts.Workers = workers
				eng := mustNewBlockSize(opts, bs)
				res, stats, err := eng.Sweep(ev)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, refRes) {
					t.Fatal("sweep results depend on block size or worker count")
				}
				if !reflect.DeepEqual(stats, refStats) {
					t.Fatalf("sweep stats diverged: %+v vs %+v", stats, refStats)
				}
			})
		}
	}
}

func TestBlockAndScalarEvaluatorsAgree(t *testing.T) {
	// A BoundBox of a DrawBox applies its samples' draw vectors from
	// its table; the same model behind a blackbox.Func has none, so its
	// BoundBox reseeds the lent generator and calls Eval once per
	// sample. Both must produce bit-identical sweeps, and bit-identical
	// blocks whose ids pass the table's bound, as a long interactive
	// session's may (the table path then falls back to Eval too) — the
	// engine-level restatement of blackbox.DrawBox's contract.
	week, err := param.Range("current_week", 0, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	purchase, err := param.Set("purchase", 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Samples: 300, FingerprintLen: 10, MasterSeed: 0x5161,
		Reuse: true, Index: IndexSortedSID, Workers: 1,
	}
	for _, tc := range []struct {
		box   blackbox.Box
		space *param.Space
		names []string
	}{
		{blackbox.NewDemand(), blockSweepSpace(t), []string{"current_week", "feature_release"}},
		{blackbox.NewCapacity(), param.MustSpace(week, purchase), []string{"current_week", "purchase", "purchase"}},
	} {
		block := MustBindBox(tc.box, tc.space, tc.names...)
		scalar := MustBindBox(blackbox.Func{FuncName: tc.box.Name(), NArgs: tc.box.Arity(), Fn: tc.box.Eval}, tc.space, tc.names...)
		a, aStats, err := MustNew(opts).Sweep(block)
		if err != nil {
			t.Fatal(err)
		}
		b, bStats, err := MustNew(opts).Sweep(scalar)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: result counts differ: %d vs %d", tc.box.Name(), len(a), len(b))
		}
		for i := range a {
			if !reflect.DeepEqual(a[i].Summary, b[i].Summary) || a[i].Reused != b[i].Reused || a[i].BasisID != b[i].BasisID {
				t.Fatalf("%s: point %d diverged:\nblock:  %+v\nscalar: %+v", tc.box.Name(), i, a[i], b[i])
			}
		}
		if !reflect.DeepEqual(aStats, bStats) {
			t.Fatalf("%s: stats diverged: %+v vs %+v", tc.box.Name(), aStats, bStats)
		}

		top := block.(*BoundBox).table.Bound()
		for _, ids := range [][]int{{3, 40, top - 1}, {7, top - 1, top, top + 5}} {
			vals := tc.space.Values(tc.space.Size()/2, nil)
			got, want := make([]float64, len(ids)), make([]float64, len(ids))
			block.EvalBlockBound(block.BindPoint(vals, nil), [][]float64{got}, opts.MasterSeed, ids, new(rng.Rand))
			scalar.EvalBlockBound(scalar.BindPoint(vals, nil), [][]float64{want}, opts.MasterSeed, ids, new(rng.Rand))
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s: ids %v: sample %d = %v, Eval %v", tc.box.Name(), ids, ids[j], got[j], want[j])
				}
			}
		}
	}
}

func TestValidationBlockSizeInvariance(t *testing.T) {
	// Match validation draws its paired samples through the block
	// pipeline; the accept/reject decisions (and hence reuse counts)
	// must not depend on block size.
	space := blockSweepSpace(t)
	ev := MustBindBox(blackbox.NewDemand(), space, "current_week", "feature_release")
	base := Options{
		Samples: 200, FingerprintLen: 10, MasterSeed: 0x5161,
		Reuse: true, ValidationSamples: 16, Workers: 1,
	}
	ref := MustNew(base)
	refRes, refStats, err := ref.Sweep(ev)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 7, 64} {
		eng := mustNewBlockSize(base, bs)
		res, stats, err := eng.Sweep(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, refRes) || !reflect.DeepEqual(stats, refStats) {
			t.Fatalf("block=%d: validation-enabled sweep depends on block size", bs)
		}
	}
}

func TestFingerprintUnchangedByBlockSize(t *testing.T) {
	ev := bindNames(blackbox.NewDemand(), "current_week", "feature_release")
	p := []float64{17, 4}
	var want []float64
	for _, bs := range []int{1, 3, 64} {
		e := mustNewBlockSize(Options{Samples: 100, FingerprintLen: 12, MasterSeed: 0x5161, Workers: 1}, bs)
		fp := fingerprintOf(e, ev, p)
		if want == nil {
			want = fp
			continue
		}
		if !reflect.DeepEqual([]float64(fp), want) {
			t.Fatalf("fingerprint depends on block size %d", bs)
		}
	}
}

func BenchmarkColdPointDemand(b *testing.B) {
	e := MustNew(Options{Samples: 1000, FingerprintLen: 10, MasterSeed: 0x5161, Reuse: false, Workers: 1})
	ev := bindNames(blackbox.NewDemand(), "week", "feature")
	p := []float64{30, 52}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.EvaluatePoint(ev, p)
	}
}

func BenchmarkColdPointCapacity(b *testing.B) {
	e := MustNew(Options{Samples: 1000, FingerprintLen: 10, MasterSeed: 0x5161, Reuse: false, Workers: 1})
	ev := bindNames(blackbox.NewCapacity(), "week", "p1", "p2")
	p := []float64{30, 10, 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.EvaluatePoint(ev, p)
	}
}

func BenchmarkColdPointOverload(b *testing.B) {
	e := MustNew(Options{Samples: 1000, FingerprintLen: 10, MasterSeed: 0x5161, Reuse: false, Workers: 1})
	ev := bindNames(blackbox.NewOverload(), "week", "p1", "p2")
	p := []float64{30, 10, 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.EvaluatePoint(ev, p)
	}
}
