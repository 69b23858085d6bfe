package mc

import (
	"math"
	"testing"
	"testing/quick"

	"jigsaw/internal/rng"
)

// TestQuickReuseEqualsNaiveOnAffineFamilies is the central soundness
// property of the whole system: for any randomly drawn affine model
// family F(p, σ) = a(p) + b(p)·Z(σ), the fingerprint-reuse engine's
// estimates are identical (up to float rounding) to naive full
// simulation at every point. testing/quick drives the family's shape.
func TestQuickReuseEqualsNaiveOnAffineFamilies(t *testing.T) {
	f := func(seed uint64, aSlope, bSlope uint8) bool {
		// Model: mean grows with slope a, spread with slope b; both
		// kept positive so the family is nondegenerate.
		as := float64(aSlope%50)/10 + 0.1
		bs := float64(bSlope%30)/10 + 0.1
		eval := funcEval(func(a []float64, r *rng.Rand) float64 {
			w := a[0]
			return as*w + (bs*w+1)*r.StdNormal()
		}, "w")
		reuse := MustNew(Options{Samples: 64, Reuse: true, Workers: 1, MasterSeed: seed})
		naive := MustNew(Options{Samples: 64, Reuse: false, Workers: 1, MasterSeed: seed})
		var fullSims int
		for w := 1.0; w <= 8; w++ {
			p := []float64{w}
			ra, st := reuse.EvaluatePoint(eval, p)
			rb, _ := naive.EvaluatePoint(eval, p)
			a, b := ra.Summary, rb.Summary
			fullSims += st.FullSimulations
			if math.Abs(a.Mean-b.Mean) > 1e-9*(1+math.Abs(b.Mean)) {
				return false
			}
			if math.Abs(a.StdDev-b.StdDev) > 1e-9*(1+b.StdDev) {
				return false
			}
		}
		// And reuse must actually have engaged (one basis).
		return fullSims == 1
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestNaNModelOutputsNeverMatch injects failure: a model that returns
// NaN for some parameter values. NaN fingerprints must never match
// anything (including themselves), so every NaN point is simulated
// fully and reuse soundness is preserved for the healthy points.
func TestNaNModelOutputsNeverMatch(t *testing.T) {
	eval := funcEval(func(a []float64, r *rng.Rand) float64 {
		w := a[0]
		if w == 3 || w == 5 {
			return math.NaN()
		}
		return r.Normal(w, 1)
	}, "w")
	e := MustNew(Options{Samples: 32, Reuse: true, Workers: 1})
	nanPoints := 0
	var st SweepStats
	for w := 1.0; w <= 8; w++ {
		res, pst := e.EvaluatePoint(eval, []float64{w})
		st.Add(pst)
		if math.IsNaN(res.Summary.Mean) {
			nanPoints++
			if res.Reused {
				t.Fatalf("NaN point w=%g was reused", w)
			}
		}
	}
	if nanPoints != 2 {
		t.Fatalf("NaN points = %d, want 2", nanPoints)
	}
	// Healthy points still share one basis.
	if st.Store.Bases != 3 { // healthy basis + two NaN bases
		t.Fatalf("bases = %d, want 3", st.Store.Bases)
	}
}

// TestInfiniteModelOutputs injects ±Inf outputs; the engine must not
// wedge and must keep Inf points out of healthy reuse.
func TestInfiniteModelOutputs(t *testing.T) {
	eval := funcEval(func(a []float64, r *rng.Rand) float64 {
		if a[0] == 2 {
			return math.Inf(1)
		}
		return r.Normal(a[0], 1)
	}, "w")
	e := MustNew(Options{Samples: 16, Reuse: true, Workers: 1})
	for w := 1.0; w <= 4; w++ {
		res, _ := e.EvaluatePoint(eval, []float64{w})
		if w == 2 {
			// Welford's recurrence turns an all-Inf stream into NaN
			// (Inf−Inf); either non-finite form is acceptable — the
			// invariant is that the pathology is *visible*, not
			// silently averaged away.
			if !math.IsInf(res.Summary.Mean, 0) && !math.IsNaN(res.Summary.Mean) {
				t.Fatalf("Inf point mean = %g, want non-finite", res.Summary.Mean)
			}
			continue
		}
		if math.IsInf(res.Summary.Mean, 0) || math.IsNaN(res.Summary.Mean) {
			t.Fatalf("healthy point w=%g contaminated: %g", w, res.Summary.Mean)
		}
	}
}

// TestQuickIndexKindsAgreeOnRandomFamilies extends the index-agreement
// invariant across randomly shaped model families.
func TestQuickIndexKindsAgreeOnRandomFamilies(t *testing.T) {
	f := func(seed uint64, shape uint8) bool {
		k := float64(shape%5) + 1
		eval := funcEval(func(a []float64, r *rng.Rand) float64 {
			w := a[0]
			return k*w + math.Sqrt(w)*r.StdNormal()
		}, "w")
		var ref []float64
		for _, kind := range []IndexKind{IndexArray, IndexNormalization, IndexSortedSID} {
			e := MustNew(Options{Samples: 48, Reuse: true, Workers: 1, MasterSeed: seed, Index: kind})
			var means []float64
			for w := 1.0; w <= 6; w++ {
				res, _ := e.EvaluatePoint(eval, []float64{w})
				means = append(means, res.Summary.Mean)
			}
			if ref == nil {
				ref = means
				continue
			}
			for i := range means {
				if means[i] != ref[i] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
