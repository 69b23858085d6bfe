package pdb

import (
	"math"
	"slices"
	"strings"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/rng"
	"jigsaw/internal/stats"
)

// demandQueryPlan builds SELECT DemandModel(@week, 52) AS demand — the
// minimal Fig. 1-style uncertain query.
func demandQueryPlan(t *testing.T, db *DB) Plan {
	t.Helper()
	bound, err := Bind(sqlExpr(t, "DemandModel(@week, 52)"), Schema{}, db.Boxes)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewExtendPlan(ValuesPlan{}, []NamedBound{{Name: "demand", Expr: bound}})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestRunDistributionEstimatesMean(t *testing.T) {
	db := fixtureDB(t)
	plan := demandQueryPlan(t, db)
	dist, err := RunDistribution(plan, map[string]float64{"week": 20}, WorldsOptions{Worlds: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if dist.Worlds != 4000 || dist.NumRows() != 1 {
		t.Fatalf("dist shape = %d worlds × %d rows", dist.Worlds, dist.NumRows())
	}
	s, err := dist.CellByName(0, "demand")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean-20) > 0.2 {
		t.Fatalf("E[demand@20] = %g, want ~20", s.Mean)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 0.1 {
		t.Fatalf("σ[demand@20] = %g, want ~%g", s.StdDev, math.Sqrt(2))
	}
}

func TestRunDistributionDeterministic(t *testing.T) {
	db := fixtureDB(t)
	plan := demandQueryPlan(t, db)
	a, err := RunDistribution(plan, map[string]float64{"week": 10}, WorldsOptions{Worlds: 200, MasterSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDistribution(plan, map[string]float64{"week": 10}, WorldsOptions{Worlds: 200, MasterSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := a.Cell(0, 0)
	sb, _ := b.Cell(0, 0)
	if sa.Mean != sb.Mean || sa.StdDev != sb.StdDev {
		t.Fatal("PDB runs not reproducible under fixed master seed")
	}
}

// TestRunDistributionPanicReturnsError checks that a model panicking
// on a worker returns an error instead of killing the process.
func TestRunDistributionPanicReturnsError(t *testing.T) {
	db := NewDB()
	db.Boxes.MustRegister(blackbox.Func{FuncName: "Explode", NArgs: 1,
		Fn: func([]float64, *rng.Rand) float64 { panic("model failure") }})
	bound, err := Bind(sqlExpr(t, "Explode(@week)"), Schema{}, db.Boxes)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewExtendPlan(ValuesPlan{}, []NamedBound{{Name: "x", Expr: bound}})
	if err != nil {
		t.Fatal(err)
	}
	// Every world panics; the error names the failing block's worlds
	// (either block may fail first on two workers).
	for _, tc := range []struct {
		workers int
		want    []string
	}{
		{1, []string{"pdb: worlds 0-255: panic: model failure"}},
		{2, []string{"pdb: worlds 0-255: panic: model failure", "pdb: worlds 256-499: panic: model failure"}},
	} {
		_, err := RunDistribution(plan, map[string]float64{"week": 1}, WorldsOptions{Worlds: 500, Workers: tc.workers})
		if err == nil || !slices.Contains(tc.want, err.Error()) {
			t.Fatalf("workers=%d: err = %v, want one of %q", tc.workers, err, tc.want)
		}
	}
}

func TestRunDistributionCellErrors(t *testing.T) {
	db := fixtureDB(t)
	plan := demandQueryPlan(t, db)
	dist, err := RunDistribution(plan, map[string]float64{"week": 10}, WorldsOptions{Worlds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist.Cell(5, 0); err == nil {
		t.Fatal("row out of range accepted")
	}
	if _, err := dist.Cell(0, 5); err == nil {
		t.Fatal("col out of range accepted")
	}
	if _, err := dist.CellByName(0, "zzz"); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestRunDistributionNilPlan(t *testing.T) {
	if _, err := RunDistribution(nil, nil, WorldsOptions{}); err == nil {
		t.Fatal("nil plan accepted")
	}
}

func TestWorldsOptionsValidation(t *testing.T) {
	// A negative world count is an error at entry (it used to panic in
	// seed derivation); zero still selects the default.
	for _, tc := range []struct {
		worlds  int
		wantErr bool
	}{
		{-3, true},
		{-1, true},
		{0, false},
		{1, false},
	} {
		opts := WorldsOptions{Worlds: tc.worlds}
		if _, err := RunDistribution(ValuesPlan{}, nil, opts); (err != nil) != tc.wantErr {
			t.Errorf("RunDistribution(Worlds: %d): err = %v, want error %v", tc.worlds, err, tc.wantErr)
		}
	}
}

// TestWorldsOptionsRejectNegative checks the knobs no default repairs
// are errors at entry, while zero keeps selecting the default.
func TestWorldsOptionsRejectNegative(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts WorldsOptions
		want string // error substring; empty means accepted
	}{
		{"negative worlds", WorldsOptions{Worlds: -1}, "Worlds ="},
		{"negative workers", WorldsOptions{Worlds: 4, Workers: -1}, "Workers"},
		{"zero defaults", WorldsOptions{Worlds: 4}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunDistribution(ValuesPlan{}, nil, tc.opts)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want one naming %s", err, tc.want)
			}
		})
	}
}

func TestRunDistributionRejectsUnstableCardinality(t *testing.T) {
	// A filter over an uncertain value yields world-dependent row
	// counts, which the positional estimator must reject.
	db := fixtureDB(t)
	inner := demandQueryPlan(t, db)
	pred, err := Bind(sqlExpr(t, "demand > 20"), inner.Schema(), db.Boxes)
	if err != nil {
		t.Fatal(err)
	}
	plan := &SelectPlan{Child: inner, Pred: pred, Desc: "demand > 20"}
	if _, err := RunDistribution(plan, map[string]float64{"week": 20}, WorldsOptions{Worlds: 50}); err == nil {
		t.Fatal("unstable cardinality accepted")
	}
}

func TestRunDistributionAggregateQuery(t *testing.T) {
	// Aggregate over a data table with per-row VG noise:
	// SELECT SUM(volume * DemandModel(week, 99)) FROM purchases.
	db := fixtureDB(t)
	scan, _ := db.Scan("purchases")
	noisy, err := Bind(sqlExpr(t, "volume * DemandModel(week, 99)"), scan.Schema(), db.Boxes)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewAggregatePlan(scan, []AggSpec{{Arg: noisy, Name: "weighted"}})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := RunDistribution(plan, nil, WorldsOptions{Worlds: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if dist.NumRows() != 1 {
		t.Fatalf("rows = %d", dist.NumRows())
	}
	total, err := dist.CellByName(0, "weighted")
	if err != nil {
		t.Fatal(err)
	}
	// 40·E[demand@10] + 60·E[demand@20] + 20·E[demand@30]
	// = 40·10 + 60·20 + 20·30 = 2200.
	if math.Abs(total.Mean-2200) > 25 {
		t.Fatalf("weighted mean = %g ± %g, want ~2200", total.Mean, total.StdDev)
	}
}

// TestDistributionCellRowsAreDisjoint pins the layout of a multi-row,
// multi-column answer: every cell lands in its own (row, column), and
// each row of Cells is clipped to its width, so appending to one row
// never overwrites the next one's cells.
func TestDistributionCellRowsAreDisjoint(t *testing.T) {
	db := fixtureDB(t)
	scan, _ := db.Scan("purchases")
	noisy, err := Bind(sqlExpr(t, "volume * DemandModel(week, 99)"), scan.Schema(), db.Boxes)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewExtendPlan(scan, []NamedBound{{Name: "noisy", Expr: noisy}})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := RunDistribution(plan, nil, WorldsOptions{Worlds: 1000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ncols := len(plan.Schema())
	wantWeek, wantVol := []float64{10, 20, 30}, []float64{40, 60, 20}
	if dist.NumRows() != len(wantWeek) {
		t.Fatalf("rows = %d, want %d", dist.NumRows(), len(wantWeek))
	}
	for k, row := range dist.Cells {
		if len(row) != ncols || cap(row) != ncols {
			t.Fatalf("row %d: len %d cap %d, want both %d", k, len(row), cap(row), ncols)
		}
		week, _ := dist.CellByName(k, "week")
		vol, _ := dist.CellByName(k, "volume")
		if week.Mean != wantWeek[k] || week.StdDev != 0 || vol.Mean != wantVol[k] {
			t.Fatalf("row %d: week %+v, volume %+v, want %g and %g", k, week, vol, wantWeek[k], wantVol[k])
		}
		// E[volume·demand@week] = volume·week.
		if got, _ := dist.CellByName(k, "noisy"); math.Abs(got.Mean-wantVol[k]*wantWeek[k]) > 0.05*wantVol[k]*wantWeek[k] {
			t.Fatalf("row %d: noisy mean %g, want ~%g", k, got.Mean, wantVol[k]*wantWeek[k])
		}
	}
	next := dist.Cells[1][0]
	_ = append(dist.Cells[0], stats.Summary{N: -1})
	if dist.Cells[1][0] != next {
		t.Fatal("appending to row 0 overwrote row 1")
	}
}

func TestWorldSeedsAlignWithEngineSeeds(t *testing.T) {
	// World k and engine sample k must share a seed so PDB-layer and
	// engine-layer results are comparable under one master seed; a
	// block of worlds 5 to 20 seeds world k as sample k.
	var ctx BlockCtx
	ctx.reset(42, 5, 16, nil, nil)
	ctx.materialize()
	for i := range ctx.Rands {
		k := 5 + i
		if ctx.IDs[i] != k || ctx.Rands[i].State() != rng.New(rng.SampleSeed(42, k)).State() {
			t.Fatalf("world %d of the block is world %d, or is not seeded as sample %d", i, ctx.IDs[i], k)
		}
	}
}

// TestRunDistributionPanicNamesShortBlock checks that a panic's world
// range stops at the last world when the block is cut short, and
// follows the block size when it is not the default.
func TestRunDistributionPanicNamesShortBlock(t *testing.T) {
	db := NewDB()
	db.Boxes.MustRegister(blackbox.Func{FuncName: "Explode", NArgs: 1,
		Fn: func([]float64, *rng.Rand) float64 { panic("model failure") }})
	bound, err := Bind(sqlExpr(t, "Explode(@week)"), Schema{}, db.Boxes)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewExtendPlan(ValuesPlan{}, []NamedBound{{Name: "x", Expr: bound}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		opts WorldsOptions
		want string
	}{
		{WorldsOptions{Worlds: 5, blockWorlds: 7}, "pdb: worlds 0-4: panic: model failure"},
		{WorldsOptions{Worlds: 20, blockWorlds: 7}, "pdb: worlds 0-6: panic: model failure"},
		{WorldsOptions{Worlds: 100}, "pdb: worlds 0-99: panic: model failure"},
	} {
		_, err := RunDistribution(plan, map[string]float64{"week": 1}, tc.opts)
		if err == nil || err.Error() != tc.want {
			t.Fatalf("worlds=%d block=%d: err = %v, want %q", tc.opts.Worlds, tc.opts.blockWorlds, err, tc.want)
		}
	}
}

// TestWorldsOptionsDefaults checks that zero options select 1000
// worlds in blocks of worldsPerBlock on one worker, and that set
// values are kept.
func TestWorldsOptionsDefaults(t *testing.T) {
	got, err := WorldsOptions{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if want := (WorldsOptions{Worlds: 1000, Workers: 1, blockWorlds: worldsPerBlock}); got != want {
		t.Fatalf("defaults = %+v, want %+v", got, want)
	}
	set := WorldsOptions{Worlds: 7, MasterSeed: 9, Workers: 3, blockWorlds: 2}
	if got, err := set.withDefaults(); err != nil || got != set {
		t.Fatalf("withDefaults(%+v) = %+v, %v; want it unchanged", set, got, err)
	}
}

// TestRecycledBlockCtxReseedsWorlds checks that a pooled BlockCtx,
// reset for another block after its generators drew, seeds each world
// afresh: the states match sample seeds and no cached normal deviate
// survives the reset.
func TestRecycledBlockCtxReseedsWorlds(t *testing.T) {
	var ctx BlockCtx
	ctx.reset(42, 0, 8, nil, nil)
	ctx.materialize()
	for w := range ctx.Rands {
		ctx.Rands[w].StdNormal() // leaves the pair's second deviate cached
	}
	ctx.reset(42, 300, 5, nil, nil)
	ctx.materialize()
	for i := range ctx.Rands {
		fresh := rng.New(rng.SampleSeed(42, 300+i))
		if ctx.Rands[i].State() != fresh.State() {
			t.Fatalf("world %d: generator state not reseeded as sample %d", ctx.IDs[i], 300+i)
		}
		if got, want := ctx.Rands[i].StdNormal(), fresh.StdNormal(); got != want {
			t.Fatalf("world %d: first normal %v, want %v from a fresh generator", ctx.IDs[i], got, want)
		}
	}
}
