package mc

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
)

// sweepSpace is a two-parameter space large enough that the parallel
// sweep exercises every phase (hits, misses, pending bases).
func sweepSpace(t *testing.T) *param.Space {
	t.Helper()
	wk, err := param.Range("current_week", 0, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := param.Range("feature_release", 0, 30, 6)
	if err != nil {
		t.Fatal(err)
	}
	return param.MustSpace(wk, fr)
}

func sweepOptions(workers int) Options {
	return Options{
		Samples:        400,
		FingerprintLen: 10,
		MasterSeed:     0x5161,
		Reuse:          true,
		Workers:        workers,
	}
}

// famModel is a multi-family test workload on bound arguments (fam,
// a, b): parameter fam selects a distinct nonlinear shape (families
// are not mappable onto each other), while a and b place the point
// inside its family's affine orbit — including negative a, so the
// SortedSID index exercises its reversed-key probe. The sample
// identity is recovered from the reseeded generator's first draw,
// keeping the fingerprint a pure function of (point, seed) on the
// scalar evaluation path.
func famModel(args []float64, r *rng.Rand) float64 {
	u := r.Uniform(0, 1)
	g := math.Sin((args[0]+1)*2.7 + u*7)
	return args[1]*g + args[2]
}

// famSpace enumerates famModel's space with fam varying slowest, so
// each new family — and therefore each basis registration — appears
// mid-sweep rather than in an initial burst.
func famSpace(t *testing.T) *param.Space {
	t.Helper()
	fam, err := param.Range("fam", 0, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := param.Range("a", -2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := param.Range("b", 0, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	return param.MustSpace(fam, a, b)
}

// synthSpace is the SynthBasis(classes) workload over n points:
// point mod classes selects the basis family, so registrations recur
// until every class has been seen and reuses interleave with them.
func synthSpace(t *testing.T, n int) *param.Space {
	t.Helper()
	idx, err := param.Range("point_index", 0, float64(n-1), 1)
	if err != nil {
		t.Fatal(err)
	}
	return param.MustSpace(idx)
}

// evaluateLoop is the sweep's reference semantics: EvaluatePoint on
// every point in order, with the per-point statistics summed. It
// shares no code with the phased pipeline beyond the per-point
// primitives (fingerprint, Store.Match, simulation, mapping).
func evaluateLoop(eng *Engine, ev PointEval, points [][]float64) ([]PointResult, SweepStats) {
	res := make([]PointResult, len(points))
	var st SweepStats
	for i, p := range points {
		var pst SweepStats
		res[i], pst = eng.EvaluatePoint(ev, p)
		st.Add(pst)
	}
	return res, st
}

// sweepRows sweeps the k outputs of f over points through one
// SweepStream and collects the stream: results[c] holds output c's
// per-point results.
func sweepRows(e *Engine, f PointEval, k int, points [][]float64) ([][]PointResult, SweepStats, error) {
	results := make([][]PointResult, k)
	for c := range results {
		results[c] = make([]PointResult, len(points))
	}
	row := func(i int, dst []float64) []float64 { return append(dst, points[i]...) }
	st, err := e.SweepStream(f, k, len(points), row, func(i int, res []PointResult) {
		for c := range results {
			results[c][i] = res[c]
		}
	})
	return results, st, err
}

// TestSweepParallelDeterminism is the core guarantee of the sweep: for
// every index strategy, with reuse on and off, with basis registrations
// forced throughout the sweep (multi-family workloads) and against both
// a fresh and a warmed store, the phased sweep returns PointResults and
// SweepStats bit-identical to an EvaluatePoint loop on a Workers: 1
// engine, for every worker count including one.
func TestSweepParallelDeterminism(t *testing.T) {
	demand := MustBindBox(blackbox.NewDemand(), sweepSpace(t), "current_week", "feature_release")
	synth := MustBindBox(blackbox.NewSynthBasis(16), synthSpace(t, 200), "point_index")
	families := MustBindBox(blackbox.Func{FuncName: "fam", NArgs: 3, Fn: famModel}, famSpace(t), "fam", "a", "b")

	for _, tc := range []struct {
		name   string
		ev     PointEval
		mutate func(*Options)
	}{
		{"reuse/array", demand, func(o *Options) { o.Index = IndexArray }},
		{"reuse/norm", demand, func(o *Options) { o.Index = IndexNormalization }},
		{"reuse/sid", demand, func(o *Options) { o.Index = IndexSortedSID }},
		{"noreuse", demand, func(o *Options) { o.Reuse = false }},
		{"validation", demand, func(o *Options) { o.ValidationSamples = 16 }},
		{"midsweep/array", synth, func(o *Options) { o.Index = IndexArray }},
		{"midsweep/norm", synth, func(o *Options) { o.Index = IndexNormalization }},
		{"midsweep/sid", synth, func(o *Options) { o.Index = IndexSortedSID }},
		{"midsweep/validation", synth, func(o *Options) {
			o.Index = IndexNormalization
			o.ValidationSamples = 16
		}},
		{"families/norm", families, func(o *Options) { o.Index = IndexNormalization }},
		{"families/sid", families, func(o *Options) { o.Index = IndexSortedSID }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refOpts := sweepOptions(1)
			tc.mutate(&refOpts)
			refEng := MustNew(refOpts)
			points := spaceRows(tc.ev.Space())
			// Two rounds per engine: the first runs against an empty
			// store (phase B registers bases as it goes), the second
			// against a warmed one (mostly hits).
			var refRes [2][]PointResult
			var refStats [2]SweepStats
			for round := range refRes {
				refRes[round], refStats[round] = evaluateLoop(refEng, tc.ev, points)
			}

			for _, workers := range []int{1, 2, 4, 7} {
				opts := sweepOptions(workers)
				tc.mutate(&opts)
				eng := MustNew(opts)
				for round := range refRes {
					res, st, err := eng.Sweep(tc.ev)
					if err != nil {
						t.Fatal(err)
					}
					if len(refRes[round]) != len(res) {
						t.Fatalf("workers=%d round %d: result count %d vs %d",
							workers, round, len(refRes[round]), len(res))
					}
					for i := range res {
						if !reflect.DeepEqual(refRes[round][i], res[i]) {
							t.Fatalf("workers=%d round %d point %d diverged:\nEvaluatePoint: %+v\nsweep:         %+v",
								workers, round, i, refRes[round][i], res[i])
						}
					}
					if !reflect.DeepEqual(refStats[round], st) {
						t.Fatalf("workers=%d round %d stats diverged:\nEvaluatePoint: %+v\nsweep:         %+v",
							workers, round, refStats[round], st)
					}
				}
			}
			if refOpts.Reuse && refStats[0].Reused == 0 {
				t.Fatal("sweep with reuse enabled reused nothing; test space too small to be meaningful")
			}
		})
	}
}

// TestSweepBatchMatchesSweep checks the explicit-batch API walks the
// same path as a space sweep.
func TestSweepBatchMatchesSweep(t *testing.T) {
	space := sweepSpace(t)
	ev := MustBindBox(blackbox.NewDemand(), space, "current_week", "feature_release")

	spaceEng := MustNew(sweepOptions(4))
	fromSpace, spaceStats, err := spaceEng.Sweep(ev)
	if err != nil {
		t.Fatal(err)
	}
	batchEng := MustNew(sweepOptions(4))
	fromBatch, batchStats, err := batchEng.SweepBatch(ev, spaceRows(space))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromSpace, fromBatch) {
		t.Fatal("SweepBatch over the space's rows differs from Sweep over the space")
	}
	if !reflect.DeepEqual(spaceStats, batchStats) {
		t.Fatalf("stats diverged: %+v vs %+v", spaceStats, batchStats)
	}
}

// TestSweepSharedEngineRace drives concurrent sweeps of one, two and
// three outputs, and EvaluatePoint loops over output 0, into one shared
// validating engine; under -race this exercises the guard on the
// engine's per-output stores as they are created, each store's lock on
// the real hot path, and the match filters that keep a call from
// reading a payload another call is still filling, and the calls'
// returned statistics must still account for every evaluation.
func TestSweepSharedEngineRace(t *testing.T) {
	points := spaceRows(famSpace(t))
	row := rowEval{transformRow{famModel, []string{"fam", "a", "b"}}, []int{0, 1, 2}}
	opts := sweepOptions(2)
	opts.ValidationSamples = 16
	eng := MustNew(opts)

	var wg sync.WaitGroup
	errs := make(chan error, 6)
	stats := make([]SweepStats, 6)
	want := 0
	for g := range stats {
		wg.Add(1)
		if g >= 4 { // an EvaluatePoint loop over output 0
			want += len(points)
			go func() {
				defer wg.Done()
				ev := rowEval{row.rows, []int{0}}
				for _, p := range points {
					_, st := eng.EvaluatePoint(ev, p)
					stats[g].Add(st)
				}
			}()
			continue
		}
		k := g%3 + 1
		want += k * len(points)
		go func() {
			defer wg.Done()
			_, st, err := sweepRows(eng, row, k, points)
			if err != nil {
				errs <- err
			}
			stats[g] = st
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var st SweepStats
	for _, gst := range stats {
		st.Add(gst)
	}
	if st.Points != want || st.Store.Queries != st.Points {
		t.Fatalf("points %d, queries %d, want %d each", st.Points, st.Store.Queries, want)
	}
	if st.FullSimulations+st.Reused != want {
		t.Fatalf("full (%d) + reused (%d) != total evaluations (%d)", st.FullSimulations, st.Reused, want)
	}
	if len(eng.stores) != 3 {
		t.Fatalf("engine holds %d stores, want one per output (3)", len(eng.stores))
	}
}

// TestSweepStatsArePerCall pins the accounting contract: a sweep's
// statistics cover that call alone, so a second sweep on a warmed
// engine reports its own n points, n queries and n evaluations (not
// the engine's running totals), and SweepStats.Add over a batch's
// halves reproduces the whole batch's statistics on a fresh engine.
func TestSweepStatsArePerCall(t *testing.T) {
	space := sweepSpace(t)
	points := spaceRows(space)
	n := len(points)
	ev := MustBindBox(blackbox.NewDemand(), space, "current_week", "feature_release")

	eng := MustNew(sweepOptions(2))
	for round := 0; round < 2; round++ {
		_, st, err := eng.Sweep(ev)
		if err != nil {
			t.Fatal(err)
		}
		if st.Points != n || st.Store.Queries != n || st.FullSimulations+st.Reused != n {
			t.Fatalf("round %d: points %d, queries %d, full %d + reused %d; want %d each",
				round, st.Points, st.Store.Queries, st.FullSimulations, st.Reused, n)
		}
		if round == 1 && (st.Store.Bases != 0 || st.FullSimulations != 0) {
			t.Fatalf("warmed sweep registered %d bases and simulated %d points; want 0",
				st.Store.Bases, st.FullSimulations)
		}
	}

	_, whole, err := MustNew(sweepOptions(2)).SweepBatch(ev, points)
	if err != nil {
		t.Fatal(err)
	}
	halves := MustNew(sweepOptions(2))
	var sum SweepStats
	for _, half := range [][][]float64{points[:n/2], points[n/2:]} {
		_, st, err := halves.SweepBatch(ev, half)
		if err != nil {
			t.Fatal(err)
		}
		sum.Add(st)
	}
	if !reflect.DeepEqual(sum, whole) {
		t.Fatalf("halves sum to %+v, whole batch %+v", sum, whole)
	}
	if whole.Store.Bases != halves.Store().Len() {
		t.Fatalf("registered bases %d, store holds %d", whole.Store.Bases, halves.Store().Len())
	}
}

// TestAbandonedPendingBasisDoesNotShadow reproduces the state a call
// abandoned by a panic leaves behind — a registered basis whose
// payload was never completed — and checks it neither gets reused nor
// permanently shadows its fingerprint family: the same point simulates
// to the Reuse: false summary, registering a usable duplicate, and a
// mappable neighbour reuses that. The abandoned basis is registered by
// hand, as a sweep abandoned between phases B and C leaves it, or by an
// EvaluatePoint whose evaluator panics past the point's prefix; that
// panic reaches the caller.
func TestAbandonedPendingBasisDoesNotShadow(t *testing.T) {
	ev := bindNames(blackbox.NewDemand(), "current_week", "feature_release")
	p := []float64{5, 20}
	noReuse := sweepOptions(1)
	noReuse.Reuse = false
	want, _ := MustNew(noReuse).EvaluatePoint(ev, p)
	for _, tc := range []struct {
		name    string
		abandon func(t *testing.T, eng *Engine)
	}{
		{"sweep", func(t *testing.T, eng *Engine) {
			abandoned := &BasisPayload{}
			abandoned.markPending()
			if _, err := eng.Store().Add(fingerprintOf(eng, ev, p), abandoned); err != nil {
				t.Fatal(err)
			}
		}},
		{"EvaluatePoint", func(t *testing.T, eng *Engine) {
			defer func() {
				if r := recover(); r != "model failure" {
					t.Fatalf("EvaluatePoint's caller recovered %v, want the evaluator's panic", r)
				}
			}()
			// The first evaluation past the prefix panics.
			eng.EvaluatePoint(&panicAtEval{inner: ev, at: int64(eng.prefixLen()) + 1}, p)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := MustNew(sweepOptions(1))
			tc.abandon(t, eng)
			if b, ok := eng.Store().Get(0); !ok || b.Payload.(*BasisPayload).Ready() {
				t.Fatal("no abandoned pending basis in the store")
			}
			res1, _ := eng.EvaluatePoint(ev, p)
			if res1.Reused {
				t.Fatal("reused a basis whose payload was never filled")
			}
			if res1.Summary != want.Summary {
				t.Fatalf("summary %+v after the abandoned basis, want the Reuse: false summary %+v", res1.Summary, want.Summary)
			}
			res2, _ := eng.EvaluatePoint(ev, []float64{9, 20})
			if !res2.Reused {
				t.Fatal("abandoned basis shadowed its fingerprint family: mappable point did not reuse")
			}
			if res2.BasisID != res1.BasisID {
				t.Fatalf("reused basis %d, want the duplicate %d", res2.BasisID, res1.BasisID)
			}
		})
	}
}

// TestForeignPayloadBasisIsNeverScanned adds a basis whose payload
// is not a *BasisPayload and checks that EvaluatePoint and a sweep
// both skip it during candidate scanning and simulate the point, so a
// matched basis always carries an engine payload.
func TestForeignPayloadBasisIsNeverScanned(t *testing.T) {
	ev := bindNames(blackbox.NewDemand(), "current_week", "feature_release")
	p := []float64{5, 20}
	newEngine := func() *Engine {
		eng := MustNew(sweepOptions(1))
		if _, err := eng.Store().Add(fingerprintOf(eng, ev, p), "not a BasisPayload"); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	res, st := newEngine().EvaluatePoint(ev, p)
	if res.Reused || st.Store.CandidatesScanned != 0 || st.Store.Hits != 0 {
		t.Fatalf("EvaluatePoint: reused %v, stats %+v; want a simulation and no scan", res.Reused, st.Store)
	}
	results, st, err := newEngine().SweepBatch(ev, [][]float64{p})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Reused || st.Store.CandidatesScanned != 0 || st.Store.Hits != 0 {
		t.Fatalf("SweepBatch: reused %v, stats %+v; want a simulation and no scan", results[0].Reused, st.Store)
	}
}
