package mc

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
)

// indicatorEval emulates an overload-style boolean column whose
// success probability is the "risk" parameter: the fingerprint
// false-positive testbed of §6.2.
var indicatorEval = funcEval(func(a []float64, r *rng.Rand) float64 {
	if r.Bernoulli(a[0]) {
		return 1
	}
	return 0
}, "risk")

func TestValidationCatchesIndicatorFalsePositive(t *testing.T) {
	// Without validation: a rare-risk point's all-zero fingerprint
	// matches the zero-risk basis and inherits its ~0 mean.
	plain := MustNew(Options{Samples: 800, Reuse: true, Workers: 1, MasterSeed: 77})
	base, _ := plain.EvaluatePoint(indicatorEval, param.Point{"risk": 0})
	if base.Summary.Mean != 0 {
		t.Fatalf("zero-risk mean = %g", base.Summary.Mean)
	}
	risky, _ := plain.EvaluatePoint(indicatorEval, param.Point{"risk": 0.05})
	if !risky.Reused {
		// The all-zero fingerprint occurs with probability .95^10 ≈ .60;
		// seed 77 is chosen to hit it. If this fires, the engine's
		// fingerprinting changed and the scenario needs a new seed.
		t.Fatalf("expected paper-mode false positive (got mean %g)", risky.Summary.Mean)
	}
	if risky.Summary.Mean != 0 {
		t.Fatalf("false positive should inherit zero mean, got %g", risky.Summary.Mean)
	}

	// With validation: the extra paired samples expose the mismatch
	// and force a full simulation.
	guarded := MustNew(Options{Samples: 800, Reuse: true, Workers: 1, MasterSeed: 77,
		KeepSamples: true, ValidationSamples: 128})
	guarded.EvaluatePoint(indicatorEval, param.Point{"risk": 0})
	gr, _ := guarded.EvaluatePoint(indicatorEval, param.Point{"risk": 0.05})
	if gr.Reused {
		t.Fatal("validation failed to reject the false positive")
	}
	if gr.Summary.Mean < 0.02 || gr.Summary.Mean > 0.09 {
		t.Fatalf("guarded mean = %g, want ~0.05", gr.Summary.Mean)
	}
}

func TestValidationAcceptsTrueMatches(t *testing.T) {
	// Genuinely affine reuse must survive validation untouched.
	e := MustNew(Options{Samples: 400, Reuse: true, Workers: 1,
		KeepSamples: true, ValidationSamples: 64})
	e.EvaluatePoint(gaussEval, param.Point{"week": 10})
	r, _ := e.EvaluatePoint(gaussEval, param.Point{"week": 30})
	if !r.Reused {
		t.Fatal("validation rejected an exact affine match")
	}
}

// TestValidationWithoutKeepSamples: ValidationSamples validates with
// or without KeepSamples. The indicator false positive of
// TestValidationCatchesIndicatorFalsePositive is rejected either way,
// through EvaluatePoint and through a sweep, and the basis it was
// checked against retains its samples.
func TestValidationWithoutKeepSamples(t *testing.T) {
	points := []param.Point{{"risk": 0}, {"risk": 0.05}}
	for _, keep := range []bool{true, false} {
		opts := Options{Samples: 800, Reuse: true, Workers: 1, MasterSeed: 77,
			KeepSamples: keep, ValidationSamples: 128}
		e := MustNew(opts)
		base, _ := e.EvaluatePoint(indicatorEval, points[0])
		if risky, _ := e.EvaluatePoint(indicatorEval, points[1]); risky.Reused {
			t.Errorf("KeepSamples=%v: EvaluatePoint trusted the false positive", keep)
		}
		if b, _ := e.Store().Get(base.BasisID); len(b.Payload.(*BasisPayload).Samples) != opts.Samples {
			t.Errorf("KeepSamples=%v: the basis retained %d samples, want %d", keep, len(b.Payload.(*BasisPayload).Samples), opts.Samples)
		}
		res, st, err := MustNew(opts).SweepBatch(indicatorEval, points)
		if err != nil {
			t.Fatal(err)
		}
		if res[1].Reused || st.Store.Hits != 1 {
			t.Errorf("KeepSamples=%v: the sweep reused %v after %d hits, want the one hit rejected", keep, res[1].Reused, st.Store.Hits)
		}
	}
}

// TestValidationSweepDrawsEachRowOnce pins the sweep's draw count with
// validation on: phase A draws every point's fingerprint and
// validation rows, m+v each (v clamped to the n−m rows there are), and
// a point that is fully simulated draws only its remaining n−m−v rows
// — a rejected match does not draw its validation rows a second time.
func TestValidationSweepDrawsEachRowOnce(t *testing.T) {
	const n, m = 800, 10
	points := []param.Point{{"risk": 0}, {"risk": 0.05}, {"risk": 0}, {"risk": 0.05}}
	for _, tc := range []struct{ validation, v int }{{128, 128}, {2 * n, n - m}} {
		for _, workers := range []int{1, 2} {
			eng := MustNew(Options{Samples: n, Reuse: true, Workers: workers, MasterSeed: 77,
				KeepSamples: true, ValidationSamples: tc.validation})
			ce := &panicAtEval{inner: indicatorEval, at: -1}
			res, st, err := eng.SweepBatch(ce, points)
			if err != nil {
				t.Fatal(err)
			}
			if res[1].Reused || st.Store.Hits <= st.Reused {
				t.Fatalf("ValidationSamples=%d workers=%d: no match was rejected (hits %d, reused %d); the workload must exercise a failed validation",
					tc.validation, workers, st.Store.Hits, st.Reused)
			}
			want := int64(len(points)*(m+tc.v) + st.FullSimulations*(n-m-tc.v))
			if got := ce.count.Load(); got != want {
				t.Errorf("ValidationSamples=%d workers=%d: sweep made %d evaluations, want %d = %d points × (m+v) + %d full simulations × (n−m−v), v = %d",
					tc.validation, workers, got, want, len(points), st.FullSimulations, tc.v)
			}
		}
	}
}

// transformRow is a three-output row over one draw of model: the
// draw itself, its square and an indicator of it exceeding 1.9, whose
// fingerprints are prone to the §6.2 false positive. BindRow writes
// the model's named arguments after the three outputs.
type transformRow struct {
	model func(args []float64, r *rng.Rand) float64
	names []string
}

var rowTransforms = [3]func(x float64) float64{
	func(x float64) float64 { return x },
	func(x float64) float64 { return x * x },
	func(x float64) float64 {
		if x > 1.9 {
			return 1
		}
		return 0
	},
}

func (r transformRow) RowLen() int { return len(rowTransforms) + len(r.names) }

func (r transformRow) BindRow(p param.Point, row []float64) {
	for i, name := range r.names {
		row[len(rowTransforms)+i] = p.MustGet(name)
	}
}

func (r transformRow) FillRow(rr *rng.Rand, row []float64) {
	x := r.model(row[len(rowTransforms):], rr)
	for j, tf := range rowTransforms {
		row[j] = tf(x)
	}
}

// rowModel is the shape of the row test doubles: a point is bound into
// a row once, then every sample fills the row from one reseeded
// generator.
type rowModel interface {
	RowLen() int
	BindRow(p param.Point, row []float64)
	FillRow(r *rng.Rand, row []float64)
}

// rowEval draws a rowModel as a PointEval whose output c is row slot
// slots[c]: the binding is the bound row, and each seed reseeds the
// lent generator and fills the row in place.
type rowEval struct {
	rows  rowModel
	slots []int
}

func (e rowEval) BindPoint(p param.Point, buf []float64) []float64 {
	buf = grow(buf, e.rows.RowLen())
	e.rows.BindRow(p, buf)
	return buf
}

func (e rowEval) EvalBlockBound(row []float64, outs [][]float64, master uint64, ids []int, r *rng.Rand) {
	for j, id := range ids {
		r.Seed(rng.SampleSeed(master, id))
		e.rows.FillRow(r, row)
		for c, out := range outs {
			if out != nil {
				out[j] = row[e.slots[c]]
			}
		}
	}
}

// TestSweepRowsMixedValidation sweeps outputs whose engines validate
// differently — 16 rounds, none, and more than the n−m rounds there
// are (clamped) — from one shared row: the prefix is as wide as the
// widest output's, so outputs that validate less (or not at all) get
// rows past their own validation rounds in phase A. Every output must
// still match a separate SweepBatch on its own engine, on a fresh
// store and a warmed one, at every worker count.
func TestSweepRowsMixedValidation(t *testing.T) {
	const samples = 200
	validation := []int{16, 0, samples}
	options := func(workers, c int) Options {
		o := sweepOptions(workers)
		o.Samples = samples
		o.Index = IndexNormalization
		o.KeepSamples = true
		o.ValidationSamples = validation[c]
		return o
	}
	for _, tc := range []struct {
		name   string
		row    transformRow
		points []param.Point
	}{
		{"families", transformRow{famModel, []string{"fam", "a", "b"}}, famSpace(t).Points()},
		{"synth", transformRow{blackbox.NewSynthBasis(16).Eval, []string{"point_index"}}, synthSpace(t, 120).Points()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			row := tc.row
			rejected := false
			for _, workers := range []int{1, 2, 4, 7} {
				engines := make([]*Engine, len(validation))
				refs := make([]*Engine, len(validation))
				for c := range engines {
					engines[c] = MustNew(options(workers, c))
					refs[c] = MustNew(options(workers, c))
				}
				for round := 0; round < 2; round++ {
					res, st, err := SweepRows(engines, rowEval{row, []int{0, 1, 2}}, tc.points)
					if err != nil {
						t.Fatal(err)
					}
					var want SweepStats
					for c, ref := range refs {
						refRes, refSt, err := ref.SweepBatch(rowEval{row, []int{c}}, tc.points)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(res[c], refRes) {
							t.Fatalf("workers=%d round %d: output %d (ValidationSamples %d) differs from its own SweepBatch",
								workers, round, c, validation[c])
						}
						rejected = rejected || refSt.Store.Hits > refSt.Reused
						want.Add(refSt)
					}
					if !reflect.DeepEqual(st, want) {
						t.Fatalf("workers=%d round %d: stats %+v, separate sweeps sum to %+v", workers, round, st, want)
					}
				}
			}
			if !rejected {
				t.Fatal("no validation rejected a match; the workload does not exercise the validation path")
			}
		})
	}
}

// countingRow is a transformRow that counts its BindRow calls per
// point and its FillRow calls.
type countingRow struct {
	transformRow
	mu    sync.Mutex
	binds map[string]int
	fills atomic.Int64
}

func (r *countingRow) BindRow(p param.Point, row []float64) {
	r.mu.Lock()
	r.binds[p.Key()]++
	r.mu.Unlock()
	r.transformRow.BindRow(p, row)
}

func (r *countingRow) FillRow(rr *rng.Rand, row []float64) {
	r.fills.Add(1)
	r.transformRow.FillRow(rr, row)
}

// TestSweepRowsBindsOncePerPoint pins the PointEval contract's cost: a
// sweep binds a point once when phase A draws its prefix and once more
// when phase C1 simulates it (if any output missed there), never once
// per sample, and the results are the same at every worker count.
func TestSweepRowsBindsOncePerPoint(t *testing.T) {
	points := famSpace(t).Points()
	for _, validation := range []int{0, 16} {
		var refRes [][]PointResult
		var refSt SweepStats
		for _, workers := range []int{1, 2, 4, 7} {
			t.Run(fmt.Sprintf("validation=%d/workers=%d", validation, workers), func(t *testing.T) {
				opts := sweepOptions(workers)
				opts.Index = IndexNormalization
				opts.KeepSamples = true
				opts.ValidationSamples = validation
				engines := []*Engine{MustNew(opts), MustNew(opts), MustNew(opts)}
				row := &countingRow{transformRow: transformRow{famModel, []string{"fam", "a", "b"}}, binds: map[string]int{}}
				res, st, err := SweepRows(engines, rowEval{row, []int{0, 1, 2}}, points)
				if err != nil {
					t.Fatal(err)
				}
				w := opts.FingerprintLen + validation
				var fills int64
				for i, p := range points {
					want, rows := 1, w
					if !res[0][i].Reused || !res[1][i].Reused || !res[2][i].Reused {
						want, rows = 2, opts.Samples
					}
					if got := row.binds[p.Key()]; got != want {
						t.Fatalf("point %d bound %d times, want %d", i, got, want)
					}
					fills += int64(rows)
				}
				if got := row.fills.Load(); got != fills {
					t.Fatalf("%d rows filled, want %d", got, fills)
				}
				if st.Reused == 0 {
					t.Fatal("nothing reused; every point binds twice")
				}
				if workers == 1 {
					refRes, refSt = res, st
					return
				}
				if !reflect.DeepEqual(res, refRes) || !reflect.DeepEqual(st, refSt) {
					t.Fatal("results differ from workers=1")
				}
			})
		}
	}
}
