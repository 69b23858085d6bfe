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
	base, _ := plain.EvaluatePoint(indicatorEval, []float64{0})
	if base.Summary.Mean != 0 {
		t.Fatalf("zero-risk mean = %g", base.Summary.Mean)
	}
	risky, _ := plain.EvaluatePoint(indicatorEval, []float64{0.05})
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
		ValidationSamples: 128})
	guarded.EvaluatePoint(indicatorEval, []float64{0})
	gr, _ := guarded.EvaluatePoint(indicatorEval, []float64{0.05})
	if gr.Reused {
		t.Fatal("validation failed to reject the false positive")
	}
	if gr.Summary.Mean < 0.02 || gr.Summary.Mean > 0.09 {
		t.Fatalf("guarded mean = %g, want ~0.05", gr.Summary.Mean)
	}
}

func TestValidationAcceptsTrueMatches(t *testing.T) {
	// Genuinely affine reuse must survive validation untouched.
	e := MustNew(Options{Samples: 400, Reuse: true, Workers: 1, ValidationSamples: 64})
	e.EvaluatePoint(gaussEval, []float64{10})
	r, _ := e.EvaluatePoint(gaussEval, []float64{30})
	if !r.Reused {
		t.Fatal("validation rejected an exact affine match")
	}
}

// TestValidationWithoutKeepSamples: ValidationSamples alone validates
// matches. The indicator false positive of
// TestValidationCatchesIndicatorFalsePositive is rejected through
// EvaluatePoint and through a sweep, and the basis it was checked
// against retains its first w = m+v = 138 samples, no more.
func TestValidationWithoutKeepSamples(t *testing.T) {
	points := [][]float64{{0}, {0.05}}
	opts := Options{Samples: 800, Reuse: true, Workers: 1, MasterSeed: 77, ValidationSamples: 128}
	e := MustNew(opts)
	base, _ := e.EvaluatePoint(indicatorEval, points[0])
	if risky, _ := e.EvaluatePoint(indicatorEval, points[1]); risky.Reused {
		t.Error("EvaluatePoint trusted the false positive")
	}
	if b, _ := e.Store().Get(base.BasisID); len(b.Payload.(*BasisPayload).Samples) != 138 {
		t.Errorf("the basis retained %d samples, want 138", len(b.Payload.(*BasisPayload).Samples))
	}
	res, st, err := MustNew(opts).SweepBatch(indicatorEval, points)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Reused || st.Store.Hits != 1 {
		t.Errorf("the sweep reused %v after %d hits, want the one hit rejected", res[1].Reused, st.Store.Hits)
	}
}

// TestValidationSweepDrawsEachRowOnce pins the sweep's draw count with
// validation on: phase A draws every point's fingerprint and
// validation rows, m+v each (v clamped to the n−m rows there are), and
// a point that is fully simulated draws only its remaining n−m−v rows
// — a rejected match does not draw its validation rows a second time.
// EvaluatePoint runs the same phases on its one point, so its rejected
// match draws n rows, not n+v.
func TestValidationSweepDrawsEachRowOnce(t *testing.T) {
	const n, m = 800, 10
	points := [][]float64{{0}, {0.05}, {0}, {0.05}}
	for _, tc := range []struct{ validation, v int }{{128, 128}, {2 * n, n - m}} {
		eng := MustNew(Options{Samples: n, Reuse: true, Workers: 1, MasterSeed: 77, ValidationSamples: tc.validation})
		eng.EvaluatePoint(indicatorEval, points[0])
		ce := &panicAtEval{inner: indicatorEval, at: -1}
		if res, st := eng.EvaluatePoint(ce, points[1]); res.Reused || st.Store.Hits != 1 {
			t.Fatalf("ValidationSamples=%d: EvaluatePoint reused %v after %d hits, want the one hit rejected", tc.validation, res.Reused, st.Store.Hits)
		}
		if got := ce.count.Load(); got != n {
			t.Errorf("ValidationSamples=%d: EvaluatePoint's rejected match made %d evaluations, want n = %d", tc.validation, got, n)
		}
		for _, workers := range []int{1, 2} {
			eng := MustNew(Options{Samples: n, Reuse: true, Workers: workers, MasterSeed: 77,
				ValidationSamples: tc.validation})
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

func (r transformRow) BindRow(vals, row []float64) {
	copy(row[len(rowTransforms):], vals[:len(r.names)])
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
	BindRow(vals, row []float64)
	FillRow(r *rng.Rand, row []float64)
}

// rowEval draws a rowModel as a PointEval whose output c is row slot
// slots[c]: the binding is the bound row, and each seed reseeds the
// lent generator and fills the row in place.
type rowEval struct {
	rows  rowModel
	slots []int
}

// Space implements PointEval: rowEval sweeps hand-built batches only.
func (rowEval) Space() *param.Space { return nil }

func (e rowEval) BindPoint(vals, buf []float64) []float64 {
	buf = grow(buf, e.rows.RowLen())
	e.rows.BindRow(vals, buf)
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

// TestSweepRowsMixedValidation sweeps three outputs from one shared
// row under each validation setting — 16 rounds, none, and more than
// the n−m rounds there are (clamped). Every output must match a
// separate SweepBatch of that output alone on an engine of the same
// options, on a fresh store and a warmed one, at every worker count.
func TestSweepRowsMixedValidation(t *testing.T) {
	const samples = 200
	options := func(workers, validation int) Options {
		o := sweepOptions(workers)
		o.Samples = samples
		o.Index = IndexNormalization
		o.ValidationSamples = validation
		return o
	}
	for _, tc := range []struct {
		name   string
		row    transformRow
		points [][]float64
	}{
		{"families", transformRow{famModel, []string{"fam", "a", "b"}}, spaceRows(famSpace(t))},
		{"synth", transformRow{blackbox.NewSynthBasis(16).Eval, []string{"point_index"}}, spaceRows(synthSpace(t, 120))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			row := tc.row
			rejected := false
			for _, validation := range []int{16, 0, samples} {
				for _, workers := range []int{1, 2, 4, 7} {
					eng := MustNew(options(workers, validation))
					refs := []*Engine{
						MustNew(options(workers, validation)),
						MustNew(options(workers, validation)),
						MustNew(options(workers, validation)),
					}
					for round := 0; round < 2; round++ {
						res, st, err := sweepRows(eng, rowEval{row, []int{0, 1, 2}}, 3, tc.points)
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
								t.Fatalf("ValidationSamples %d workers=%d round %d: output %d differs from its own SweepBatch",
									validation, workers, round, c)
							}
							rejected = rejected || refSt.Store.Hits > refSt.Reused
							want.Add(refSt)
						}
						if !reflect.DeepEqual(st, want) {
							t.Fatalf("ValidationSamples %d workers=%d round %d: stats %+v, separate sweeps sum to %+v",
								validation, workers, round, st, want)
						}
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

func (r *countingRow) BindRow(vals, row []float64) {
	r.mu.Lock()
	r.binds[fmt.Sprint(vals)]++
	r.mu.Unlock()
	r.transformRow.BindRow(vals, row)
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
	points := spaceRows(famSpace(t))
	for _, validation := range []int{0, 16} {
		var refRes [][]PointResult
		var refSt SweepStats
		for _, workers := range []int{1, 2, 4, 7} {
			t.Run(fmt.Sprintf("validation=%d/workers=%d", validation, workers), func(t *testing.T) {
				opts := sweepOptions(workers)
				opts.Index = IndexNormalization
				opts.ValidationSamples = validation
				row := &countingRow{transformRow: transformRow{famModel, []string{"fam", "a", "b"}}, binds: map[string]int{}}
				res, st, err := sweepRows(MustNew(opts), rowEval{row, []int{0, 1, 2}}, 3, points)
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
					if got := row.binds[fmt.Sprint(p)]; got != want {
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
