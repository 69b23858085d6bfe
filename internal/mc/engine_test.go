package mc

import (
	"math"
	"slices"
	"strings"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/core"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
	"jigsaw/internal/stats"
)

// gaussEval is a PointEval drawing N(week, (0.1*week)^2+1): affine in
// the week parameter under a fixed seed, so every point maps onto one
// basis.
var gaussEval = funcEval(func(a []float64, r *rng.Rand) float64 {
	w := a[0]
	return r.Normal(w, 0.1*w+1)
}, "week")

// funcEval binds a plain model of the named parameters: a[i] is the
// point's value of names[i]. It draws through the scalar block
// adapter, one reseeded Eval per sample.
func funcEval(fn func(a []float64, r *rng.Rand) float64, names ...string) PointEval {
	return MustBindBox(blackbox.Func{FuncName: "test", NArgs: len(names), Fn: fn}, names...)
}

func weekSpace(t *testing.T, lo, hi, step float64) *param.Space {
	t.Helper()
	d, err := param.Range("week", lo, hi, step)
	if err != nil {
		t.Fatal(err)
	}
	return param.MustSpace(d)
}

func TestBindBox(t *testing.T) {
	f, err := BindBox(blackbox.NewDemand(), "week", "feature")
	if err != nil {
		t.Fatal(err)
	}
	p := param.Point{"week": 10, "feature": 52}
	var a [1]float64
	f.EvalBlockBound(f.BindPoint(p, nil), [][]float64{a[:]}, 0x5161, []int{3}, new(rng.Rand))
	b := blackbox.NewDemand().Eval([]float64{10, 52}, rng.New(rng.SampleSeed(0x5161, 3)))
	if a[0] != b {
		t.Fatalf("bound eval %g != direct eval %g", a[0], b)
	}
	if _, err := BindBox(blackbox.NewDemand(), "week"); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestMustBindBoxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBindBox did not panic")
		}
	}()
	MustBindBox(blackbox.NewDemand(), "week")
}

func TestOptionsDefaults(t *testing.T) {
	e := MustNew(Options{})
	o := e.Options()
	if o.Samples != 1000 || o.FingerprintLen != 10 {
		t.Fatalf("defaults = %+v", o)
	}
	if o.Class != (core.LinearClass{}) {
		t.Fatal("default class not linear")
	}
}

func TestNewRejectsFingerprintLongerThanSamples(t *testing.T) {
	if _, err := New(Options{Samples: 5, FingerprintLen: 10}); err == nil {
		t.Fatal("m > n accepted")
	}
}

func TestNewRejectsInvalidOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"negative samples", Options{Samples: -5}, "negative Samples"},
		{"negative samples and fingerprint", Options{Samples: -5, FingerprintLen: -10}, "negative Samples"},
		{"negative fingerprint length", Options{FingerprintLen: -2}, "negative FingerprintLen"},
		{"negative workers", Options{Workers: -1}, "Workers"},
		{"negative validation samples", Options{ValidationSamples: -1}, "ValidationSamples"},
		{"NaN tolerance", Options{Tolerance: math.NaN()}, "Tolerance"},
		{"+Inf tolerance", Options{Tolerance: math.Inf(1)}, "Tolerance"},
		{"-Inf tolerance", Options{Tolerance: math.Inf(-1)}, "Tolerance"},
		{"unknown index", Options{Index: 7}, "index"},
		{"negative index", Options{Index: -1}, "index"},
		{"fingerprint longer than samples", Options{Samples: 5, FingerprintLen: 10}, "fingerprint length"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.opts)
			if err == nil {
				t.Fatalf("New(%+v) accepted invalid options (engine %v)", tc.opts, e != nil)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

func TestIndexKindString(t *testing.T) {
	if IndexArray.String() != "Array" ||
		IndexNormalization.String() != "Normalization" ||
		IndexSortedSID.String() != "SortedSID" {
		t.Fatal("IndexKind strings broken")
	}
	if !strings.Contains(IndexKind(9).String(), "9") {
		t.Fatal("unknown IndexKind string")
	}
}

func TestEvaluatePointFullSimulation(t *testing.T) {
	e := MustNew(Options{Samples: 2000, Reuse: false, Workers: 1})
	res, _ := e.EvaluatePoint(gaussEval, param.Point{"week": 20})
	if res.Reused {
		t.Fatal("reuse disabled but result reused")
	}
	if res.Summary.N != 2000 {
		t.Fatalf("N = %d", res.Summary.N)
	}
	if math.Abs(res.Summary.Mean-20) > 0.3 {
		t.Fatalf("mean = %g, want ~20", res.Summary.Mean)
	}
	if math.Abs(res.Summary.StdDev-3) > 0.2 {
		t.Fatalf("stddev = %g, want ~3", res.Summary.StdDev)
	}
}

func TestReuseProducesExactMappedMetrics(t *testing.T) {
	// The §6.2 accuracy claim: reused outputs equal full simulation,
	// because the mapping is exact for affine-related points.
	reuse := MustNew(Options{Samples: 500, Reuse: true, Workers: 1})
	naive := MustNew(Options{Samples: 500, Reuse: false, Workers: 1})

	p1 := param.Point{"week": 10}
	p2 := param.Point{"week": 30}

	r1, _ := reuse.EvaluatePoint(gaussEval, p1)
	if r1.Reused {
		t.Fatal("first point cannot be reused")
	}
	r2, _ := reuse.EvaluatePoint(gaussEval, p2)
	if !r2.Reused {
		t.Fatal("affinely related point not reused")
	}
	want, _ := naive.EvaluatePoint(gaussEval, p2)
	relErr := math.Abs(r2.Summary.Mean-want.Summary.Mean) / math.Abs(want.Summary.Mean)
	if relErr > 1e-9 {
		t.Fatalf("reused mean %g vs full %g (rel %g)", r2.Summary.Mean, want.Summary.Mean, relErr)
	}
	if math.Abs(r2.Summary.StdDev-want.Summary.StdDev) > 1e-9*(1+want.Summary.StdDev) {
		t.Fatalf("reused stddev %g vs full %g", r2.Summary.StdDev, want.Summary.StdDev)
	}
}

func TestSweepReuseCounts(t *testing.T) {
	e := MustNew(Options{Samples: 200, Reuse: true, Workers: 1})
	space := weekSpace(t, 1, 50, 1)
	results, st, err := e.Sweep(gaussEval, space)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 50 {
		t.Fatalf("results = %d", len(results))
	}
	if st.FullSimulations != 1 {
		t.Fatalf("full sims = %d, want 1 (single basis)", st.FullSimulations)
	}
	if st.Reused != 49 {
		t.Fatalf("reused = %d, want 49", st.Reused)
	}
	if st.Store.Bases != 1 {
		t.Fatalf("bases = %d", st.Store.Bases)
	}
}

func TestSweepNilSpace(t *testing.T) {
	e := MustNew(Options{})
	if _, _, err := e.Sweep(gaussEval, nil); err == nil {
		t.Fatal("nil space accepted")
	}
}

func TestNaiveSweepNeverReuses(t *testing.T) {
	e := MustNew(Options{Samples: 50, Reuse: false, Workers: 1})
	space := weekSpace(t, 1, 10, 1)
	_, st, err := e.Sweep(gaussEval, space)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reused != 0 || st.FullSimulations != 10 || st.Store.Bases != 0 {
		t.Fatalf("naive stats = %+v", st)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	seq := MustNew(Options{Samples: 3000, Reuse: false, Workers: 1})
	par := MustNew(Options{Samples: 3000, Reuse: false, Workers: 8})
	p := param.Point{"week": 15}
	a, _ := seq.EvaluatePoint(gaussEval, p)
	b, _ := par.EvaluatePoint(gaussEval, p)
	if a.Summary.Mean != b.Summary.Mean || a.Summary.StdDev != b.Summary.StdDev {
		t.Fatalf("parallel result differs: %g/%g vs %g/%g",
			a.Summary.Mean, a.Summary.StdDev, b.Summary.Mean, b.Summary.StdDev)
	}
}

func TestKeepSamplesPayload(t *testing.T) {
	e := MustNew(Options{Samples: 64, Reuse: true, KeepSamples: true, Workers: 1})
	res, _ := e.EvaluatePoint(gaussEval, param.Point{"week": 5})
	basis, ok := e.Store().Get(res.BasisID)
	if !ok {
		t.Fatal("basis not stored")
	}
	payload := basis.Payload.(*BasisPayload)
	if len(payload.Samples) != 64 {
		t.Fatalf("payload samples = %d", len(payload.Samples))
	}
	// The retained samples are the ones the point's summary was taken
	// over, and a later miss's simulation does not overwrite them.
	want := append([]float64(nil), payload.Samples...)
	square := funcEval(func(_ []float64, r *rng.Rand) float64 {
		x := r.StdNormal()
		return x * x
	})
	if miss, _ := e.EvaluatePoint(square, param.Point{"week": 5}); miss.Reused {
		t.Fatal("a squared normal matched the Gaussian basis")
	}
	acc := stats.NewAccumulator()
	acc.AddBlock(payload.Samples)
	if got := acc.Summarize(); got != res.Summary || payload.Summary != res.Summary {
		t.Fatalf("payload samples summarize to %+v, payload summary %+v, result %+v", got, payload.Summary, res.Summary)
	}
	if !slices.Equal(payload.Samples, want) {
		t.Fatal("a later point overwrote the payload's samples")
	}
}

func TestEvaluatePointMapsSummary(t *testing.T) {
	// A reused point's summary is its basis' summary pushed through
	// the found mapping: the mean and range endpoints map, σ scales by
	// |α|, and the endpoints swap when α < 0.
	flip := funcEval(func(a []float64, r *rng.Rand) float64 {
		w := a[0]
		return w + (10-w/2)*r.StdNormal() // week 40 = -2·(week 10) + 60
	}, "week")
	for _, tc := range []struct {
		name     string
		ev       PointEval
		negative bool
	}{
		{"positive alpha", gaussEval, false},
		{"negative alpha", flip, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := MustNew(Options{Samples: 400, Reuse: true, Workers: 1})
			basis, _ := e.EvaluatePoint(tc.ev, param.Point{"week": 10})
			mapped, _ := e.EvaluatePoint(tc.ev, param.Point{"week": 40})
			if basis.Reused || !mapped.Reused || mapped.BasisID != basis.BasisID {
				t.Fatalf("want week 40 mapped from week 10's basis: %+v, %+v", basis, mapped)
			}
			m := mapped.Mapping
			if (m.Alpha < 0) != tc.negative {
				t.Fatalf("mapping %v, want negative α = %v", m, tc.negative)
			}
			if want := basis.Summary.MapAffine(m.Alpha, m.Beta); mapped.Summary != want {
				t.Fatalf("mapped summary %+v, want %+v", mapped.Summary, want)
			}
			lo, hi := m.Apply(basis.Summary.Min), m.Apply(basis.Summary.Max)
			if tc.negative {
				lo, hi = hi, lo
			}
			if mapped.Summary.Min != lo || mapped.Summary.Max != hi || lo >= hi {
				t.Fatalf("mapped range [%g, %g], want [%g, %g]", mapped.Summary.Min, mapped.Summary.Max, lo, hi)
			}
		})
	}
}

func TestFingerprintIsPrefixOfSimulation(t *testing.T) {
	// §3.1: the fingerprint is the first m simulation rounds, so a
	// full simulation and the fingerprint agree on those samples.
	e := MustNew(Options{Samples: 32, KeepSamples: true, Reuse: true, Workers: 1})
	p := param.Point{"week": 9}
	fp := fingerprintOf(e, gaussEval, p)
	res, _ := e.EvaluatePoint(gaussEval, p)
	basis, _ := e.Store().Get(res.BasisID)
	samples := basis.Payload.(*BasisPayload).Samples
	for k := range fp {
		if samples[k] != fp[k] {
			t.Fatalf("sample %d = %g, fingerprint %g", k, samples[k], fp[k])
		}
	}
}

func TestIndexStrategiesAgree(t *testing.T) {
	// All three index strategies must produce identical sweep results
	// (indexes only prune candidates, never change answers).
	space := weekSpace(t, 1, 30, 1)
	var ref []PointResult
	for _, kind := range []IndexKind{IndexArray, IndexNormalization, IndexSortedSID} {
		e := MustNew(Options{Samples: 100, Reuse: true, Index: kind, Workers: 1})
		results, _, err := e.Sweep(gaussEval, space)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = results
			continue
		}
		for i := range results {
			if math.Abs(results[i].Summary.Mean-ref[i].Summary.Mean) > 1e-9 {
				t.Fatalf("%v: point %d mean %g != ref %g",
					kind, i, results[i].Summary.Mean, ref[i].Summary.Mean)
			}
		}
	}
}

func TestCapacitySweepFindsFewBases(t *testing.T) {
	// The Capacity model over a whole year needs only a handful of
	// basis distributions (Fig. 8's point).
	cap := blackbox.NewCapacity()
	f := MustBindBox(cap, "week", "p1", "p2")
	wk, _ := param.Range("week", 0, 51, 1)
	p1, _ := param.Set("p1", 10)
	p2, _ := param.Set("p2", 30)
	space := param.MustSpace(wk, p1, p2)

	e := MustNew(Options{Samples: 300, Reuse: true, Workers: 1})
	_, st, err := e.Sweep(f, space)
	if err != nil {
		t.Fatal(err)
	}
	if st.FullSimulations >= 30 {
		t.Fatalf("capacity sweep used %d bases for 52 weeks; reuse broken", st.FullSimulations)
	}
	if st.FullSimulations < 2 {
		t.Fatalf("capacity sweep used %d bases; structures should force several", st.FullSimulations)
	}
}
