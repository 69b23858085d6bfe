package mc

import (
	"fmt"
	"reflect"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/core"
	"jigsaw/internal/param"
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
	// A BoundBox routes through the vectorized kernel; the same model
	// behind a blackbox.Func has none, so its BoundBox reseeds the lent
	// generator and calls Eval once per sample. Both must produce
	// bit-identical sweeps — the engine-level restatement of
	// blackbox.BlockBox's contract.
	space := blockSweepSpace(t)
	d := blackbox.NewDemand()
	block := MustBindBox(d, space, "current_week", "feature_release")
	scalar := MustBindBox(blackbox.Func{FuncName: d.Name(), NArgs: d.Arity(), Fn: d.Eval}, space, "current_week", "feature_release")

	opts := Options{
		Samples: 300, FingerprintLen: 10, MasterSeed: 0x5161,
		Reuse: true, Index: IndexSortedSID, Workers: 1,
	}
	a, aStats, err := MustNew(opts).Sweep(block)
	if err != nil {
		t.Fatal(err)
	}
	b, bStats, err := MustNew(opts).Sweep(scalar)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Summary, b[i].Summary) || a[i].Reused != b[i].Reused || a[i].BasisID != b[i].BasisID {
			t.Fatalf("point %d diverged:\nblock:  %+v\nscalar: %+v", i, a[i], b[i])
		}
	}
	if !reflect.DeepEqual(aStats, bStats) {
		t.Fatalf("stats diverged: %+v vs %+v", aStats, bStats)
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
		Reuse: true, KeepSamples: true, ValidationSamples: 16, Workers: 1,
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
