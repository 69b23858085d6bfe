package exec

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/mc"
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
// order (and repeating past n = 498): the order TestGoldenRows' digests
// read them in.
func sampleIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i * i % 997
	}
	return ids
}

// blockIDs returns sampleIDs(n) ascending, as an engine or a session
// hands a block its ids: scattered, and repeating past n = 498.
func blockIDs(n int) []int {
	ids := sampleIDs(n)
	slices.Sort(ids)
	return ids
}

// TestSeedOnlyColumnEvalMatchesGeneratorPath: a seed-only row's
// ColumnEval, which draws each sample once into the scenario's table
// and copies it at every point, is bit-identical to the same script
// with DrawBox hidden, which draws every sample at every point, for
// every column and block size, on a fresh table and a warm one.
func TestSeedOnlyColumnEvalMatchesGeneratorPath(t *testing.T) {
	ids := blockIDs(300)
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
					p := stock.Space.Values(i, nil)
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

// drawBlocks draws ev at the value row p over master's samples ids in
// blocks of bs.
func drawBlocks(ev mc.PointEval, p []float64, master uint64, ids []int, bs int) []float64 {
	return drawColumns(ev, 1, p, master, ids, bs)[0]
}

// drawColumns draws all k outputs of ev at the value row p over
// master's samples ids in blocks of bs.
func drawColumns(ev mc.PointEval, k int, p []float64, master uint64, ids []int, bs int) [][]float64 {
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

// TestDrawTablePastBound: ids that straddle the table's bound, far
// apart and with a repeat, under masters that alternate, draw bit for
// bit what the generator path draws at every block size: a block whose
// last id is past the bound draws every lane into the row.
func TestDrawTablePastBound(t *testing.T) {
	stock, hidden := compileDraws(t, figure1Source)
	top := stock.table.Bound()
	ids := []int{0, 1, 5, 997, 3 * top / 4, top - 2, top - 1, top, top + 1, top + 1, top + 3, top + 1000, 2 * top}
	all := make([]int, len(stock.Columns))
	for c := range all {
		all[c] = c
	}
	sev, hev := &columns{s: stock, slots: all}, &columns{s: hidden, slots: all}
	for _, bs := range []int{1, 7, 256} {
		for _, master := range []uint64{1, 2, 1} {
			for i := 0; i < stock.Space.Size(); i += stock.Space.Size() / 3 {
				p := stock.Space.Values(i, nil)
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
		}
	}
}

// sweepAll sweeps names over every batch and returns the results.
func sweepAll(t *testing.T, s *Scenario, names []string, opts mc.Options, batches [][][]float64) ([][][]mc.PointResult, error) {
	t.Helper()
	cs, err := s.SweepColumns(names, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out [][][]mc.PointResult
	for _, batch := range batches {
		res, err := streamBatch(cs, batch)
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
				res, err := streamBatch(cs, batch)
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

// countingDemand is Demand counting its Draw calls.
type countingDemand struct {
	*blackbox.Demand
	draws *atomic.Int64
}

func (c countingDemand) Draw(r *rng.Rand, d []float64) {
	c.draws.Add(1)
	c.Demand.Draw(r, d)
}

// TestDrawTableFlatInPoints: the table holds one entry per sample id,
// so what it draws depends on the samples, not the points swept:
// sweeping 2 points or 120 draws each of the 300 samples once, and a
// second sweep over new points draws nothing.
func TestDrawTableFlatInPoints(t *testing.T) {
	script, err := sqlparse.Parse(figure1Source)
	if err != nil {
		t.Fatal(err)
	}
	for _, points := range []int{2, 120} {
		draws := new(atomic.Int64)
		reg := blackbox.NewRegistry()
		reg.MustRegister(countingDemand{blackbox.NewDemand(), draws})
		reg.MustRegister(blackbox.NewCapacity())
		s, err := CompileScenario(script, reg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sweepAll(t, s, []string{"overload"}, drawOpts(9, 1), [][][]float64{spaceRows(s.Space, 0, points)}); err != nil {
			t.Fatal(err)
		}
		first := draws.Load()
		if _, err := sweepAll(t, s, []string{"overload"}, drawOpts(9, 1), [][][]float64{spaceRows(s.Space, points, 2*points)}); err != nil {
			t.Fatal(err)
		}
		if again := draws.Load() - first; first != 300 || again != 0 {
			t.Fatalf("%d points: the table drew %d Demand vectors, then %d for new points; want 300, then 0", points, first, again)
		}
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
		bound := ev.BindPoint(s.Space.Values(s.Space.Size()/2, nil), nil)
		outs, ids := [][]float64{make([]float64, 64)}, blockIDs(64)
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
	p := []float64{50, 0, 4, 12}
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
