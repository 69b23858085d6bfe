package exec

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
	"jigsaw/internal/sqlparse"
)

// pointOnlyBox shows a model's PointBox capability and hides DrawBox,
// so a row of it binds its call sites but draws them per point.
type pointOnlyBox struct{ blackbox.PointBox }

// drawHiddenRegistry registers the models with DrawBox hidden.
func drawHiddenRegistry(boxes ...blackbox.Box) *blackbox.Registry {
	reg := blackbox.NewRegistry()
	for _, b := range boxes {
		if pb, ok := b.(blackbox.PointBox); ok {
			b = pointOnlyBox{pb}
		}
		reg.MustRegister(b)
	}
	return reg
}

// seedOnlySources are scripts whose every model call is a bound
// DrawBox call site: Fig. 1, and calls in CASE arms, ELSE included,
// and under builtins and parameter arithmetic, with one model twice.
var seedOnlySources = []struct{ name, src string }{
	{"fig1", figure1Source},
	{"arms and builtins", `
DECLARE PARAMETER @w AS RANGE 0 TO 60 STEP BY 3;
DECLARE PARAMETER @p AS SET (0, 8, 30);
SELECT CASE WHEN @w < 30 THEN DemandModel(@w, 12) ELSE CapacityModel(@w, MINV(@p, 10) + 1, -@p) END AS v,
       ABS(DemandModel(@w * 2, @p) - v) AS u,
       CASE WHEN u > 3 THEN 1 WHEN v > 50 THEN CapacityModel(@w, @p, 52) ELSE DemandModel(@w, 36) END AS x`},
}

// compileDraws compiles src with the stock models and with DrawBox
// hidden; the first must be seed-only and the second not.
func compileDraws(t testing.TB, src string) (stock, hidden *Scenario) {
	t.Helper()
	script, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if stock, err = CompileScenario(script, stdRegistry()); err != nil {
		t.Fatal(err)
	}
	if hidden, err = CompileScenario(script, drawHiddenRegistry(blackbox.NewDemand(), blackbox.NewCapacity())); err != nil {
		t.Fatal(err)
	}
	if shared, why := stock.SharesDraws(); !shared || stock.table == nil {
		t.Fatalf("stock row is not seed-only: %s", why)
	}
	if shared, why := hidden.SharesDraws(); shared || !strings.Contains(why, "draws depend on its arguments") {
		t.Fatalf("row with DrawBox hidden: shared %v (%q), want unshared", shared, why)
	}
	return stock, hidden
}

// sampleIDs returns n sample ids scattered over the first 997, out of
// order (and repeating past n = 498), as an interactive session draws
// them.
func sampleIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i * i % 997
	}
	return ids
}

// TestSeedOnlyColumnEvalMatchesGeneratorPath: a seed-only row's
// ColumnEval, which draws each sample once into the scenario's table
// and copies it at every point, is bit-identical to the same script
// with DrawBox hidden, which draws every sample at every point, for
// every column and block size, on a fresh table and a warm one.
func TestSeedOnlyColumnEvalMatchesGeneratorPath(t *testing.T) {
	ids := sampleIDs(300)
	for _, tc := range seedOnlySources {
		for _, bs := range []int{1, 7, 256} {
			stock, hidden := compileDraws(t, tc.src)
			for _, col := range stock.Columns {
				sev, err := stock.ColumnEval(col)
				if err != nil {
					t.Fatal(err)
				}
				hev, err := hidden.ColumnEval(col)
				if err != nil {
					t.Fatal(err)
				}
				n := stock.Space.Size()
				for i := 0; i < n; i += max(1, n/13) {
					p := stock.Space.Point(i)
					got, want := drawBlocks(sev, p, 0x5161, ids, bs), drawBlocks(hev, p, 0x5161, ids, bs)
					for j := range want {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("%s, block size %d, column %s at %v: sample %d = %v, generator path %v",
								tc.name, bs, col, p, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// drawBlocks draws ev at p over master's samples ids in blocks of bs.
func drawBlocks(ev mc.PointEval, p param.Point, master uint64, ids []int, bs int) []float64 {
	return drawColumns(ev, 1, p, master, ids, bs)[0]
}

// drawColumns draws all k outputs of ev at p over master's samples ids
// in blocks of bs.
func drawColumns(ev mc.PointEval, k int, p param.Point, master uint64, ids []int, bs int) [][]float64 {
	outs := make([][]float64, k)
	for c := range outs {
		outs[c] = make([]float64, len(ids))
	}
	bound := ev.BindPoint(p, nil)
	var r rng.Rand
	blk := make([][]float64, len(outs))
	for lo := 0; lo < len(ids); lo += bs {
		hi := min(lo+bs, len(ids))
		for c := range outs {
			blk[c] = outs[c][lo:hi]
		}
		ev.EvalBlockBound(bound, blk, master, ids[lo:hi], &r)
	}
	return outs
}

// TestDrawTablePastBound: ids that straddle the table's bound, out of
// order and far apart, under masters that alternate, draw bit for bit
// what the generator path draws at every block size. An id past the
// bound is drawn into the row, and the table never holds more than
// the bound.
func TestDrawTablePastBound(t *testing.T) {
	stock, hidden := compileDraws(t, figure1Source)
	top := maxTableBytes / (8 * stock.table.width)
	ids := []int{top + 3, 5, top - 1, 2 * top, 0, top, 997, top - 2, top + 1, 3 * top / 4, 1, top + 1000}
	all := make([]int, len(stock.Columns))
	for c := range all {
		all[c] = c
	}
	sev, hev := &columns{s: stock, slots: all}, &columns{s: hidden, slots: all}
	for _, bs := range []int{1, 7, 256} {
		for _, master := range []uint64{1, 2, 1} {
			for i := 0; i < stock.Space.Size(); i += stock.Space.Size() / 3 {
				p := stock.Space.Point(i)
				got, want := drawColumns(sev, len(all), p, master, ids, bs), drawColumns(hev, len(all), p, master, ids, bs)
				for c := range want {
					for j := range want[c] {
						if math.Float64bits(got[c][j]) != math.Float64bits(want[c][j]) {
							t.Fatalf("block size %d, master %d, at %v: %s of sample %d = %v, generator path %v",
								bs, master, p, stock.Columns[c], ids[j], got[c][j], want[c][j])
						}
					}
				}
			}
			if snap := stock.table.snap.Load(); snap.master != master || len(snap.vals) != top*stock.table.width {
				t.Fatalf("block size %d, master %d: table holds %d draws under master %d, want %d of %d",
					bs, master, len(snap.vals), snap.master, top*stock.table.width, master)
			}
		}
	}
}

// sweepAll sweeps names over every batch and returns the results.
func sweepAll(t *testing.T, s *Scenario, names []string, opts mc.Options, batches [][]param.Point) ([][][]mc.PointResult, error) {
	t.Helper()
	cs, err := s.SweepColumns(names, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out [][][]mc.PointResult
	for _, batch := range batches {
		res, err := cs.Sweep(batch)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// sameResults compares two sweeps' results bit for bit.
func sameResults(a, b [][][]mc.PointResult) error {
	for bi := range a {
		for c := range a[bi] {
			for i := range a[bi][c] {
				g, w := a[bi][c][i], b[bi][c][i]
				if !sameSummary(g.Summary, w.Summary) || g.Reused != w.Reused ||
					g.BasisID != w.BasisID || !reflect.DeepEqual(g.Mapping, w.Mapping) {
					return fmt.Errorf("batch %d column %d point %d: %+v, want %+v", bi, c, i, g, w)
				}
			}
		}
	}
	return nil
}

func drawOpts(master uint64, workers int) mc.Options {
	return mc.Options{
		Samples: 300, FingerprintLen: 10, MasterSeed: master,
		Reuse: true, Index: mc.IndexNormalization, Workers: workers,
		ValidationSamples: 16, KeepSamples: true,
	}
}

// TestSeedOnlySweepMatchesGeneratorPath: SweepColumns over a seed-only
// row returns, at every worker count, bit for bit what it returns with
// DrawBox hidden.
func TestSeedOnlySweepMatchesGeneratorPath(t *testing.T) {
	names := []string{"overload", "capacity", "demand"}
	for _, workers := range []int{1, 2, 4} {
		stock, hidden := compileDraws(t, figure1Source)
		got, err := sweepAll(t, stock, names, drawOpts(0x5161, workers), fig1Batches())
		if err != nil {
			t.Fatal(err)
		}
		want, err := sweepAll(t, hidden, names, drawOpts(0x5161, workers), fig1Batches())
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResults(got, want); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
	}
}

// TestDrawTableAcrossMasterSeeds: one Scenario swept in turn by
// engines with different MasterSeed values returns each engine's own
// answers: a sweep under a new master replaces the table rather than
// reading another master's draws.
func TestDrawTableAcrossMasterSeeds(t *testing.T) {
	stock, hidden := compileDraws(t, figure1Source)
	names := []string{"overload", "demand"}
	for _, master := range []uint64{1, 2, 1, 0x5161} {
		got, err := sweepAll(t, stock, names, drawOpts(master, 2), fig1Batches())
		if err != nil {
			t.Fatal(err)
		}
		want, err := sweepAll(t, hidden, names, drawOpts(master, 2), fig1Batches())
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResults(got, want); err != nil {
			t.Fatalf("master seed %d: %v", master, err)
		}
	}
}

// TestConcurrentSweepsShareDrawTable: sweeps on several goroutines
// share one Scenario, and so its table, while they fill it; each
// returns its generator-path answers. Run it under -race.
func TestConcurrentSweepsShareDrawTable(t *testing.T) {
	stock, hidden := compileDraws(t, figure1Source)
	names := []string{"overload", "capacity"}
	masters := []uint64{3, 4, 3, 5}
	want := make([][][][]mc.PointResult, len(masters))
	for g, master := range masters {
		var err error
		if want[g], err = sweepAll(t, hidden, names, drawOpts(master, 2), fig1Batches()); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(masters))
	for g, master := range masters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs, err := stock.SweepColumns(names, drawOpts(master, 2))
			if err != nil {
				errs[g] = err
				return
			}
			var got [][][]mc.PointResult
			for _, batch := range fig1Batches() {
				res, err := cs.Sweep(batch)
				if err != nil {
					errs[g] = err
					return
				}
				got = append(got, res)
			}
			errs[g] = sameResults(got, want[g])
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("sweep %d (master seed %d): %v", g, masters[g], err)
		}
	}
}

// panicDemand is Demand whose Draw panics, while armed, on the
// generator state one seed starts from.
type panicDemand struct {
	*blackbox.Demand
	bad   [4]uint64
	armed *atomic.Bool
}

func (p panicDemand) Draw(r *rng.Rand, d []float64) {
	if p.armed.Load() && r.State() == p.bad {
		panic("panicDemand: bad seed")
	}
	p.Demand.Draw(r, d)
}

// TestDrawTablePanicIsPointError: a Draw that panics while the table
// fills comes back as the sweep's error naming a point, not a crash;
// the entry it was drawing is never published, so a later sweep with
// the fault still armed fails again (rather than reading a half-drawn
// entry), and once disarmed every answer is the generator path's.
func TestDrawTablePanicIsPointError(t *testing.T) {
	const master = 0x5161
	opts := drawOpts(master, 2)
	// Sample 200 is drawn in the full simulations, after the prefix.
	bad := rng.New(rng.SampleSeed(master, 200)).State()
	armed := new(atomic.Bool)
	reg := blackbox.NewRegistry()
	reg.MustRegister(panicDemand{Demand: blackbox.NewDemand(), bad: bad, armed: armed})
	reg.MustRegister(blackbox.NewCapacity())
	script, err := sqlparse.Parse(figure1Source)
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileScenario(script, reg)
	if err != nil {
		t.Fatal(err)
	}
	_, hidden := compileDraws(t, figure1Source)
	names := []string{"overload"}
	armed.Store(true)
	for range 2 {
		_, err := sweepAll(t, s, names, opts, fig1Batches())
		if err == nil || !strings.Contains(err.Error(), "point ") || !strings.Contains(err.Error(), "panicDemand: bad seed") {
			t.Fatalf("sweep with a panicking Draw returned %v, want an error naming its point", err)
		}
	}
	armed.Store(false)
	got, err := sweepAll(t, s, names, opts, fig1Batches())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweepAll(t, hidden, names, opts, fig1Batches())
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResults(got, want); err != nil {
		t.Fatalf("after the panic: %v", err)
	}
}

// TestDrawTableFlatInPoints: the table holds one entry per sample id,
// so its footprint depends on the samples drawn, not the points swept:
// sweeping 2 points or 120 leaves the same table, and a second sweep
// over new points publishes nothing new.
func TestDrawTableFlatInPoints(t *testing.T) {
	footprint := func(points int) (*drawSnap, int) {
		s := compileFig1(t)
		batch := s.Space.Points()[:points]
		if _, err := sweepAll(t, s, []string{"overload"}, drawOpts(9, 1), [][]param.Point{batch}); err != nil {
			t.Fatal(err)
		}
		snap := s.table.snap.Load()
		if _, err := sweepAll(t, s, []string{"overload"}, drawOpts(9, 1), [][]param.Point{s.Space.Points()[points : 2*points]}); err != nil {
			t.Fatal(err)
		}
		if s.table.snap.Load() != snap {
			t.Fatalf("%d points: a sweep over new points rebuilt the warm table", points)
		}
		return snap, cap(snap.vals)
	}
	few, small := footprint(2)
	many, large := footprint(120)
	width := compileFig1(t).table.width
	if len(few.vals) != 300*width || len(many.vals) != 300*width || small != large {
		t.Fatalf("table after 2 points: %d draws, capacity %d; after 120: %d draws, %d; want 300 entries of %d and the same footprint",
			len(few.vals), small, len(many.vals), large, width)
	}
}

// TestSharesDrawsNamesTheSite: a row is seed-only when every model
// call is a bound DrawBox call site; otherwise SharesDraws names the
// first call site that keeps its draws per point.
func TestSharesDrawsNamesTheSite(t *testing.T) {
	for _, tc := range []struct {
		name, src, why string
	}{
		{"fig1", figure1Source, ""},
		{"graph_users", usersSource, "UserSelection: draws depend on its arguments"},
		{"fig5", figure5Source, "ReleaseWeekModel: its arguments vary per sample"},
		{"nested", `
DECLARE PARAMETER @w AS RANGE 0 TO 60 STEP BY 3;
SELECT DemandModel(@w, 12) AS a, DemandModel(CapacityModel(@w, 1, 2), 12) AS b`, "DemandModel: its arguments vary per sample"},
		{"no PointBox", `
DECLARE PARAMETER @w AS RANGE 0 TO 60 STEP BY 3;
SELECT DemandModel(@w, 12) AS a, ReleaseWeekModel(@w, 1, 2) AS b`, "ReleaseWeekModel: does not bind per point"},
	} {
		script, err := sqlparse.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		reg, _ := pointBoxRegistries(boundModels()...)
		s, err := CompileScenario(script, reg)
		if err != nil {
			t.Fatal(err)
		}
		if shared, why := s.SharesDraws(); shared != (tc.why == "") || why != tc.why || (s.table != nil) != shared {
			t.Errorf("%s: SharesDraws = %v, %q (table %v); want %q", tc.name, shared, why, s.table != nil, tc.why)
		}
	}
}

// TestGeneratorPathBlockAllocs: a row that is not seed-only draws a
// ColumnEval block through the generator with no allocation, as the
// table path does (TestColumnEvalBlockAllocs): graph_users' row, and
// Fig. 1 with DrawBox hidden.
func TestGeneratorPathBlockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector")
	}
	_, fig1 := compileDraws(t, figure1Source)
	users, _ := compileBoth(t, usersSource)
	for _, s := range []*Scenario{fig1, users} {
		if s.table != nil {
			t.Fatal("row unexpectedly seed-only")
		}
		ev, err := s.ColumnEval("overload")
		if err != nil {
			t.Fatal(err)
		}
		bound := ev.BindPoint(s.Space.Point(s.Space.Size()/2), nil)
		outs, ids := [][]float64{make([]float64, 64)}, sampleIDs(64)
		var r rng.Rand
		if n := testing.AllocsPerRun(20, func() { ev.EvalBlockBound(bound, outs, 0x5161, ids, &r) }); n != 0 {
			t.Errorf("%v: a generator-path block allocates %.1f, want 0", s.Columns, n)
		}
	}
}

// BenchmarkSeedOnlyColumnBlock draws Fig. 1's overload column at one
// bound point, 1000 sample ids per op: through the warm draw table,
// and with DrawBox hidden, through the generator.
func BenchmarkSeedOnlyColumnBlock(b *testing.B) {
	stock, hidden := compileDraws(b, figure1Source)
	p := param.Point{"current_week": 50, "purchase1": 0, "purchase2": 4, "feature_release": 12}
	ids := make([]int, 1000)
	for i := range ids {
		ids[i] = i
	}
	for _, tc := range []struct {
		name string
		s    *Scenario
	}{{"table", stock}, {"generator", hidden}} {
		b.Run(tc.name, func(b *testing.B) {
			ev, err := tc.s.ColumnEval("overload")
			if err != nil {
				b.Fatal(err)
			}
			bound := ev.BindPoint(p, nil)
			outs := [][]float64{make([]float64, len(ids))}
			var r rng.Rand
			ev.EvalBlockBound(bound, outs, 0x5161, ids, &r) // warm the table
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				ev.EvalBlockBound(bound, outs, 0x5161, ids, &r)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)), "ns/sample")
		})
	}
}
