// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6), plus ablations for the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute times differ from the paper's 2008 hardware; the shape (who
// wins, by what factor, where crossovers fall) is the reproduction
// target. cmd/jigsaw-bench prints the same experiments as tables.
package jigsaw_test

import (
	"fmt"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/core"
	"jigsaw/internal/exec"
	"jigsaw/internal/markov"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/pdb"
	"jigsaw/internal/sqlparse"
)

const (
	benchSamples = 1000 // paper: 1000 samples per point
	benchM       = 10   // paper: fingerprint length 10
	benchSeed    = 0x5161
)

func benchEngine(reuse bool, kind mc.IndexKind, class core.LinearClass) *mc.Engine {
	return mc.MustNew(mc.Options{
		Samples: benchSamples, FingerprintLen: benchM, MasterSeed: benchSeed,
		Reuse: reuse, Index: kind, Workers: 1, Class: class,
	})
}

func capacitySpace(b *testing.B) *param.Space {
	b.Helper()
	wk, err := param.Range("current_week", 0, 52, 1)
	if err != nil {
		b.Fatal(err)
	}
	p1, err := param.Range("purchase1", 0, 52, 4)
	if err != nil {
		b.Fatal(err)
	}
	p2, err := param.Range("purchase2", 0, 52, 4)
	if err != nil {
		b.Fatal(err)
	}
	return param.MustSpace(wk, p1, p2)
}

// ---------- Figure 7: wrapper vs core engine ----------

// BenchmarkFigure7DemandWrapper measures one Demand parameter point
// through the full PDB stack (parse → plan → per-world interpretation),
// the paper's "Online" column.
func BenchmarkFigure7DemandWrapper(b *testing.B) {
	db := pdb.NewDB()
	db.Boxes.MustRegister(blackbox.NewDemand())
	params := map[string]float64{"current_week": 30, "feature_release": 12}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		script, err := sqlparse.Parse(`SELECT DemandModel(@current_week, @feature_release) AS demand`)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := exec.BuildPDBPlan(script.Selects[0], db)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pdb.RunDistribution(plan, params,
			pdb.WorldsOptions{Worlds: benchSamples, MasterSeed: benchSeed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7DemandCore measures the same point through the
// lightweight engine (the paper's "Offline" Ruby-analogue column).
func BenchmarkFigure7DemandCore(b *testing.B) {
	eng := benchEngine(false, mc.IndexArray, core.LinearClass{})
	ev := mc.MustBindBox(blackbox.NewDemand(), demandSpace(b), "current_week", "feature_release")
	p := []float64{30, 12} // current_week, feature_release
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.EvaluatePoint(ev, p)
	}
}

// BenchmarkFigure7UserSelectWrapper measures the data-dependent model
// through the PDB's columnar Scan → SUM tree — the row where the
// wrapper wins.
func BenchmarkFigure7UserSelectWrapper(b *testing.B) {
	users := blackbox.NewUserSelection(2000, 0xD5)
	tbl := pdb.MustNewTable("join_week", "base", "growth", "vol")
	for _, u := range users.Users {
		tbl.MustAppend(pdb.Row{pdb.Float(u.JoinWeek), pdb.Float(u.BaseCores),
			pdb.Float(u.GrowthRate), pdb.Float(u.Volatility)})
	}
	db := pdb.NewDB()
	db.Boxes.MustRegister(blackbox.UserUsage{})
	scan := pdb.NewScanPlan("users", tbl)
	script, err := sqlparse.Parse(`SELECT UserUsage(@w, join_week, base, growth, vol) AS usage`)
	if err != nil {
		b.Fatal(err)
	}
	usage, err := pdb.Bind(script.Selects[0].Items[0].Expr, scan.Schema(), db.Boxes)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := pdb.NewAggregatePlan(scan, []pdb.AggSpec{{Arg: usage, Name: "total"}})
	if err != nil {
		b.Fatal(err)
	}
	params := map[string]float64{"w": 30}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pdb.RunDistribution(plan, params, pdb.WorldsOptions{Worlds: benchSamples, MasterSeed: benchSeed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7UserSelectCore measures the same model
// tuple-at-a-time through the lightweight engine.
func BenchmarkFigure7UserSelectCore(b *testing.B) {
	users := blackbox.NewUserSelection(2000, 0xD5)
	eng := benchEngine(false, mc.IndexArray, core.LinearClass{})
	w, err := param.Set("w", 30)
	if err != nil {
		b.Fatal(err)
	}
	ev := mc.MustBindBox(users, param.MustSpace(w), "w")
	p := []float64{30}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.EvaluatePoint(ev, p)
	}
}

// ---------- Figure 8: Jigsaw vs full evaluation ----------

func benchSweep(b *testing.B, box blackbox.Box, space *param.Space, reuse bool, class core.LinearClass, names ...string) {
	b.Helper()
	ev := mc.MustBindBox(box, space, names...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := benchEngine(reuse, mc.IndexNormalization, class)
		if _, _, err := eng.Sweep(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// strict reproduces Algorithm 2 literally (no constant matching), the
// configuration behind Fig. 8's Overload bar.
var strict = core.LinearClass{StrictConstants: true}

func BenchmarkFigure8DemandFull(b *testing.B) {
	benchSweep(b, blackbox.NewDemand(), demandSpace(b), false, strict, "current_week", "feature_release")
}

func BenchmarkFigure8DemandJigsaw(b *testing.B) {
	benchSweep(b, blackbox.NewDemand(), demandSpace(b), true, strict, "current_week", "feature_release")
}

func demandSpace(b *testing.B) *param.Space {
	b.Helper()
	wk, err := param.Range("current_week", 0, 52, 1)
	if err != nil {
		b.Fatal(err)
	}
	fr, err := param.Range("feature_release", 0, 52, 1)
	if err != nil {
		b.Fatal(err)
	}
	return param.MustSpace(wk, fr) // ~2800 points; paper: ~5000
}

func BenchmarkFigure8CapacityFull(b *testing.B) {
	benchSweep(b, blackbox.NewCapacity(), capacitySpace(b), false, strict,
		"current_week", "purchase1", "purchase2")
}

func BenchmarkFigure8CapacityJigsaw(b *testing.B) {
	benchSweep(b, blackbox.NewCapacity(), capacitySpace(b), true, strict,
		"current_week", "purchase1", "purchase2")
}

func BenchmarkFigure8OverloadFull(b *testing.B) {
	benchSweep(b, blackbox.NewOverload(), capacitySpace(b), false, strict,
		"current_week", "purchase1", "purchase2")
}

func BenchmarkFigure8OverloadJigsaw(b *testing.B) {
	benchSweep(b, blackbox.NewOverload(), capacitySpace(b), true, strict,
		"current_week", "purchase1", "purchase2")
}

func BenchmarkFigure8MarkovStepFull(b *testing.B) {
	opts := markov.JumpOptions{Instances: benchSamples, FingerprintLen: benchM, MasterSeed: benchSeed}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := markov.NaiveEvaluate(markov.NewDemandReleaseChain(), 512, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8MarkovStepJigsaw(b *testing.B) {
	opts := markov.JumpOptions{Instances: benchSamples, FingerprintLen: benchM, MasterSeed: benchSeed}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := markov.Jump(markov.NewDemandReleaseChain(), 512, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- Figure 9: structure size (Capacity) ----------

func BenchmarkFigure9(b *testing.B) {
	for _, size := range []int{2, 10, 20} {
		for _, kind := range []mc.IndexKind{mc.IndexArray, mc.IndexNormalization, mc.IndexSortedSID} {
			b.Run(fmt.Sprintf("structure=%d/%s", size, kind), func(b *testing.B) {
				capModel := blackbox.NewCapacity()
				capModel.MeanDelay = float64(size) / 2.5
				space := capacitySpace(b)
				ev := mc.MustBindBox(capModel, space, "current_week", "purchase1", "purchase2")
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					eng := benchEngine(true, kind, core.LinearClass{})
					if _, _, err := eng.Sweep(ev); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------- Figures 10 & 11: indexing strategies ----------

func BenchmarkFigure10(b *testing.B) {
	const points = 1000
	for _, bases := range []int{10, 100, 400} {
		for _, kind := range []mc.IndexKind{mc.IndexArray, mc.IndexNormalization, mc.IndexSortedSID} {
			b.Run(fmt.Sprintf("bases=%d/%s", bases, kind), func(b *testing.B) {
				box := blackbox.NewSynthBasis(bases)
				box.Work = 40
				d, err := param.Range("point", 0, points-1, 1)
				if err != nil {
					b.Fatal(err)
				}
				space := param.MustSpace(d)
				ev := mc.MustBindBox(box, space, "point")
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					eng := benchEngine(true, kind, core.LinearClass{})
					if _, _, err := eng.Sweep(ev); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	for _, bases := range []int{50, 200, 500} {
		points := bases * 10
		for _, kind := range []mc.IndexKind{mc.IndexArray, mc.IndexNormalization, mc.IndexSortedSID} {
			b.Run(fmt.Sprintf("bases=%d/%s", bases, kind), func(b *testing.B) {
				box := blackbox.NewSynthBasis(bases)
				box.Work = 40
				d, err := param.Range("point", 0, float64(points-1), 1)
				if err != nil {
					b.Fatal(err)
				}
				space := param.MustSpace(d)
				ev := mc.MustBindBox(box, space, "point")
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					eng := benchEngine(true, kind, core.LinearClass{})
					if _, _, err := eng.Sweep(ev); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------- Figure 12: Markov branching sweep ----------

func BenchmarkFigure12(b *testing.B) {
	opts := markov.JumpOptions{Instances: benchSamples, FingerprintLen: benchM, MasterSeed: benchSeed}
	const steps = 128
	for _, branching := range []float64{1e-5, 1e-3, 1e-2, 0.05, 0.1} {
		b.Run(fmt.Sprintf("branching=%g/naive", branching), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := markov.NewBranchChain(branching)
				c.Box.Work = 8
				if _, _, err := markov.NaiveEvaluate(c, steps, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("branching=%g/jigsaw", branching), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := markov.NewBranchChain(branching)
				c.Box.Work = 8
				if _, _, err := markov.Jump(c, steps, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------- Ablations (design choices from DESIGN.md) ----------

// BenchmarkAblationFingerprintLength varies m: longer fingerprints
// cost more up-front work per point but reduce false-positive risk
// (§6.2 accuracy discussion).
func BenchmarkAblationFingerprintLength(b *testing.B) {
	space := capacitySpace(b)
	ev := mc.MustBindBox(blackbox.NewCapacity(), space, "current_week", "purchase1", "purchase2")
	for _, m := range []int{2, 10, 50} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := mc.MustNew(mc.Options{
					Samples: benchSamples, FingerprintLen: m, MasterSeed: benchSeed,
					Reuse: true, Index: mc.IndexNormalization, Workers: 1,
				})
				if _, _, err := eng.Sweep(ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationValidation measures the cost of the match-
// validation guard on a workload where every match is genuine.
func BenchmarkAblationValidation(b *testing.B) {
	ev := mc.MustBindBox(blackbox.NewDemand(), demandSpace(b), "current_week", "feature_release")
	for _, v := range []int{0, 64, 256} {
		b.Run(fmt.Sprintf("validate=%d", v), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := mc.MustNew(mc.Options{
					Samples: benchSamples, FingerprintLen: benchM, MasterSeed: benchSeed,
					Reuse: true, Workers: 1, ValidationSamples: v,
				})
				for w := 0.0; w <= 259; w++ {
					eng.EvaluatePoint(ev, []float64{w, 300}) // current_week, feature_release
				}
			}
		})
	}
}

// BenchmarkSweepWorkers measures the concurrent sweep subsystem:
// point-level parallelism over a data-dependent model whose sweep
// admits little reuse, so nearly every point pays a full simulation.
// workers=1 is the sequential baseline; workers=0 (all cores) must
// show a multi-core speedup while producing bit-identical results
// (TestSweepParallelDeterminism in internal/mc asserts the latter).
func BenchmarkSweepWorkers(b *testing.B) {
	users := blackbox.NewUserSelection(500, 0xD5)
	d, err := param.Range("w", 0, 31, 1)
	if err != nil {
		b.Fatal(err)
	}
	space := param.MustSpace(d)
	ev := mc.MustBindBox(users, space, "w")
	for _, workers := range []int{1, 0} { // 0 = GOMAXPROCS
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := mc.MustNew(mc.Options{
					Samples: 200, FingerprintLen: benchM, MasterSeed: benchSeed,
					Reuse: true, Index: mc.IndexNormalization, Workers: workers,
				})
				if _, _, err := eng.Sweep(ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepWorkersReuseHeavy is the scaling picture on the
// opposite workload: Demand reuses almost every point, so the
// parallel win comes from fingerprint computation (phase A) alone.
func BenchmarkSweepWorkersReuseHeavy(b *testing.B) {
	space := demandSpace(b)
	ev := mc.MustBindBox(blackbox.NewDemand(), space, "current_week", "feature_release")
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := mc.MustNew(mc.Options{
					Samples: benchSamples, FingerprintLen: benchM, MasterSeed: benchSeed,
					Reuse: true, Index: mc.IndexNormalization, Workers: workers,
				})
				if _, _, err := eng.Sweep(ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// graphUsersSource is a GRAPH-shaped scenario after perfbench's
// graph_users workload: three columns over the weeks, one of them the
// model-bound per-user usage.
const graphUsersSource = `
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @feature_release AS SET (12, 36, 44);
SELECT UserSelection(@current_week)                 AS usage,
       DemandModel(@current_week, @feature_release) AS demand,
       CASE WHEN usage > demand THEN 1 ELSE 0 END   AS overload
INTO results;
`

// BenchmarkColumnSweep measures exec.ColumnSweep over a graph-shaped
// batch (the weeks at a fixed release) from a cold store: k=1 sweeps
// the usage column alone, k=3 all three, each sampled row evaluated
// once for every column. ns/point is per batch point, so k=3 costs
// about what k=1 does when the model-bound column misses everywhere.
func BenchmarkColumnSweep(b *testing.B) {
	script, err := sqlparse.Parse(graphUsersSource)
	if err != nil {
		b.Fatal(err)
	}
	reg := blackbox.NewRegistry()
	reg.MustRegister(blackbox.NewUserSelection(200, 0xD5))
	reg.MustRegister(blackbox.NewDemand())
	s, err := exec.CompileScenario(script, reg)
	if err != nil {
		b.Fatal(err)
	}
	pos, _ := s.Space.Position("current_week")
	week := s.Space.Decls()[pos]
	var batch [][]float64
	for _, w := range week.Domain() {
		batch = append(batch, []float64{w, 36}) // current_week, feature_release
	}
	row := func(i int, dst []float64) []float64 { return append(dst, batch[i]...) }
	for _, cols := range [][]string{{"usage"}, {"usage", "demand", "overload"}} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("k=%d/workers=%d", len(cols), workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sweep, err := s.SweepColumns(cols, mc.Options{
						Samples: 200, FingerprintLen: benchM, MasterSeed: benchSeed,
						Reuse: true, Index: mc.IndexNormalization, Workers: workers,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := sweep.Stream(len(batch), row, func(int, []mc.PointResult) {}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/point")
			})
		}
	}
}

// BenchmarkFingerprintMatch isolates the §3 primitives: mapping
// discovery against stores of growing size.
func BenchmarkFingerprintMatch(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		for _, mk := range map[string]func() core.Index{
			"array": func() core.Index { return core.NewArrayIndex() },
			"norm":  func() core.Index { return core.NewNormalizationIndex() },
			"sid":   func() core.Index { return core.NewSortedSIDIndex() },
		} {
			name := fmt.Sprintf("bases=%d/%s", n, mk().Name())
			b.Run(name, func(b *testing.B) {
				store := core.NewStore(core.LinearClass{}, mk())
				base := make(core.Fingerprint, benchM)
				for class := 0; class < n; class++ {
					for k := range base {
						// Distinct families per class; the linear k
						// term keeps every vector non-constant even
						// when (class+3) is a multiple of 17 and the
						// quadratic term vanishes.
						base[k] = float64(class*31) + float64(k) + float64((k*k*(class+3))%17)
					}
					if _, err := store.Add(base.Clone(), nil); err != nil {
						b.Fatal(err)
					}
				}
				probe := base.MappedBy(core.Linear{Alpha: 2, Beta: 3})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, ok, _ := store.Match(probe, nil, nil); !ok {
						b.Fatal("probe did not match")
					}
				}
			})
		}
	}
}
