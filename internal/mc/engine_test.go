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

// gaussBox draws N(week, (0.1*week)^2+1): affine in the week
// parameter under a fixed seed, so every point maps onto one basis.
var gaussBox = blackbox.Func{FuncName: "gauss", NArgs: 1, Fn: func(a []float64, r *rng.Rand) float64 {
	w := a[0]
	return r.Normal(w, 0.1*w+1)
}}

// gaussEval is gaussBox over value rows holding the week alone.
var gaussEval = bindNames(gaussBox, "week")

// funcEval binds a plain model of the named parameters: a[i] is the
// point's value of names[i]. It draws through the scalar block
// adapter, one reseeded Eval per sample.
func funcEval(fn func(a []float64, r *rng.Rand) float64, names ...string) PointEval {
	return bindNames(blackbox.Func{FuncName: "test", NArgs: len(names), Fn: fn}, names...)
}

// rowSpace declares names, in order, as one-value SETs: the space an
// evaluator of hand-built value rows binds against, where row[i] holds
// names[i]'s value.
func rowSpace(names ...string) *param.Space {
	decls := make([]param.Decl, len(names))
	for i, name := range names {
		decls[i], _ = param.Set(name, 0)
	}
	return param.MustSpace(decls...)
}

// bindNames binds box's arguments to names over rowSpace(names...).
func bindNames(box blackbox.Box, names ...string) PointEval {
	return MustBindBox(box, rowSpace(names...), names...)
}

// spaceRows returns the value rows of s's points in enumeration order.
func spaceRows(s *param.Space) [][]float64 {
	rows := make([][]float64, s.Size())
	for i := range rows {
		rows[i] = s.Values(i, nil)
	}
	return rows
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
	// The names resolve to value-row positions, in any order.
	space := rowSpace("other", "feature", "week")
	f, err := BindBox(blackbox.NewDemand(), space, "week", "feature")
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{-1, 52, 10}
	var a [1]float64
	f.EvalBlockBound(f.BindPoint(p, nil), [][]float64{a[:]}, 0x5161, []int{3}, new(rng.Rand))
	b := blackbox.NewDemand().Eval([]float64{10, 52}, rng.New(rng.SampleSeed(0x5161, 3)))
	if a[0] != b {
		t.Fatalf("bound eval %g != direct eval %g", a[0], b)
	}
	if f.Space() != space {
		t.Fatal("the bound box does not carry its space")
	}
	if _, err := BindBox(blackbox.NewDemand(), space, "week"); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := BindBox(blackbox.NewDemand(), nil, "week", "feature"); err == nil {
		t.Fatal("nil space accepted")
	}
	chain, _ := param.Chain("rw", "rw", "week", -1, 52)
	week, _ := param.Set("week", 1)
	for _, s := range []*param.Space{space, param.MustSpace(week, chain)} {
		_, err := BindBox(blackbox.NewDemand(), s, "week", "rw")
		if err == nil || !strings.Contains(err.Error(), "@rw") {
			t.Fatalf("BindBox to an undeclared or CHAIN name: err = %v, want one naming @rw", err)
		}
	}
}

func TestMustBindBoxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBindBox did not panic")
		}
	}()
	MustBindBox(blackbox.NewDemand(), rowSpace("week"), "week")
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
	res, _ := e.EvaluatePoint(gaussEval, []float64{20})
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

	p1 := []float64{10}
	p2 := []float64{30}

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
	results, st, err := e.Sweep(MustBindBox(gaussBox, weekSpace(t, 1, 50, 1), "week"))
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
	if _, _, err := e.Sweep(rowEval{}); err == nil {
		t.Fatal("an evaluator without a space swept")
	}
}

func TestNaiveSweepNeverReuses(t *testing.T) {
	e := MustNew(Options{Samples: 50, Reuse: false, Workers: 1})
	_, st, err := e.Sweep(MustBindBox(gaussBox, weekSpace(t, 1, 10, 1), "week"))
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
	p := []float64{15}
	a, _ := seq.EvaluatePoint(gaussEval, p)
	b, _ := par.EvaluatePoint(gaussEval, p)
	if a.Summary.Mean != b.Summary.Mean || a.Summary.StdDev != b.Summary.StdDev {
		t.Fatalf("parallel result differs: %g/%g vs %g/%g",
			a.Summary.Mean, a.Summary.StdDev, b.Summary.Mean, b.Summary.StdDev)
	}
}

// TestValidatingBasisRetainsWindow: a validating engine's basis
// retains exactly its owner's prefix, rows 0 to w−1 (w = m+v), through
// EvaluatePoint and through a pipelined sweep, and a later miss's
// simulation leaves them alone; a non-validating engine's basis
// retains nothing.
func TestValidatingBasisRetainsWindow(t *testing.T) {
	t.Run("EvaluatePoint", func(t *testing.T) {
		e := MustNew(Options{Samples: 64, Reuse: true, ValidationSamples: 16, Workers: 1})
		p := []float64{5}
		res, _ := e.EvaluatePoint(gaussEval, p)
		basis, ok := e.Store().Get(res.BasisID)
		if !ok {
			t.Fatal("basis not stored")
		}
		payload := basis.Payload.(*BasisPayload)
		full := simulate(gaussEval, p, 0, 64)
		if w := e.prefixLen(); w != 26 || !slices.Equal(payload.Samples, full[:w]) {
			t.Fatalf("the basis retained %d samples, want its %d-row prefix exactly", len(payload.Samples), w)
		}
		if payload.Summary != res.Summary {
			t.Fatalf("payload summary %+v, result %+v", payload.Summary, res.Summary)
		}
		want := slices.Clone(payload.Samples)
		square := funcEval(func(_ []float64, r *rng.Rand) float64 {
			x := r.StdNormal()
			return x * x
		})
		if miss, _ := e.EvaluatePoint(square, p); miss.Reused {
			t.Fatal("a squared normal matched the Gaussian basis")
		}
		if !slices.Equal(payload.Samples, want) {
			t.Fatal("a later point overwrote the payload's samples")
		}
	})
	t.Run("sweep", func(t *testing.T) {
		opts := sweepOptions(4)
		opts.ValidationSamples = 16
		e := MustNew(opts)
		ev := MustBindBox(blackbox.NewSynthBasis(16), synthSpace(t, 200), "point_index")
		res, st, err := e.Sweep(ev)
		if err != nil {
			t.Fatal(err)
		}
		w, misses := e.prefixLen(), 0
		for i, r := range res {
			if r.Reused {
				continue
			}
			misses++
			b, _ := e.Store().Get(r.BasisID)
			p := []float64{float64(i)}
			if got, want := b.Payload.(*BasisPayload).Samples, simulate(ev, p, opts.MasterSeed, w); !slices.Equal(got, want) {
				t.Fatalf("point %d's basis retained %d samples, want its %d-row prefix exactly", i, len(got), w)
			}
		}
		if misses != st.Store.Bases || st.Reused == 0 {
			t.Fatalf("%d misses, %d bases, %d reused: want every miss a basis, and reuse", misses, st.Store.Bases, st.Reused)
		}
	})
	t.Run("plain", func(t *testing.T) {
		plain := MustNew(Options{Samples: 64, Reuse: true, Workers: 1})
		res, _ := plain.EvaluatePoint(gaussEval, []float64{5})
		if b, _ := plain.Store().Get(res.BasisID); b.Payload.(*BasisPayload).Samples != nil {
			t.Errorf("a non-validating basis retained %d samples", len(b.Payload.(*BasisPayload).Samples))
		}
	})
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
			basis, _ := e.EvaluatePoint(tc.ev, []float64{10})
			mapped, _ := e.EvaluatePoint(tc.ev, []float64{40})
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

// simulate draws rounds 0 to n−1 of f at p under master through the
// evaluator alone, in one block.
func simulate(f PointEval, p []float64, master uint64, n int) []float64 {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	out := make([]float64, n)
	var r rng.Rand
	f.EvalBlockBound(f.BindPoint(p, nil), [][]float64{out}, master, ids, &r)
	return out
}

func TestFingerprintIsPrefixOfSimulation(t *testing.T) {
	// §3.1: the fingerprint is the first m simulation rounds, so a
	// full simulation and the fingerprint agree on those samples, and
	// the engine's simulated point summarizes that simulation.
	e := MustNew(Options{Samples: 32, Reuse: true, Workers: 1})
	p := []float64{9}
	fp := fingerprintOf(e, gaussEval, p)
	samples := simulate(gaussEval, p, 0, 32)
	for k := range fp {
		if samples[k] != fp[k] {
			t.Fatalf("sample %d = %g, fingerprint %g", k, samples[k], fp[k])
		}
	}
	acc := stats.NewAccumulator()
	acc.AddBlock(samples)
	if res, _ := e.EvaluatePoint(gaussEval, p); res.Summary != acc.Summarize() {
		t.Fatalf("simulated point %+v, want the simulation's %+v", res.Summary, acc.Summarize())
	}
}

func TestIndexStrategiesAgree(t *testing.T) {
	// All three index strategies must produce identical sweep results
	// (indexes only prune candidates, never change answers).
	ev := MustBindBox(gaussBox, weekSpace(t, 1, 30, 1), "week")
	var ref []PointResult
	for _, kind := range []IndexKind{IndexArray, IndexNormalization, IndexSortedSID} {
		e := MustNew(Options{Samples: 100, Reuse: true, Index: kind, Workers: 1})
		results, _, err := e.Sweep(ev)
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
	wk, _ := param.Range("week", 0, 51, 1)
	p1, _ := param.Set("p1", 10)
	p2, _ := param.Set("p2", 30)
	f := MustBindBox(blackbox.NewCapacity(), param.MustSpace(wk, p1, p2), "week", "p1", "p2")

	e := MustNew(Options{Samples: 300, Reuse: true, Workers: 1})
	_, st, err := e.Sweep(f)
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
