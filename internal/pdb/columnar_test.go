package pdb

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/rng"
)

// The columnar executor's contract is bit-identity: for every
// operator, block size and worker count, RunDistribution must produce
// exactly the Distribution the per-world reference oracle
// (reference_test.go) produces — cells, key rows, schema, everything.
// These tests pin that across a query zoo covering every built-in
// operator and the interesting randomness disciplines (fresh-lane
// draws from a call site's table, bound draws on live streams,
// branch-masked draws, world-varying selections), at chunk sizes that
// make even a two-row table cross a chunk boundary.

var columnarBlockSizes = []int{1, 7, 256, 1000}
var columnarWorkers = []int{1, 4}
var columnarChunkSizes = []int{1, rowsPerChunk}

// columnarDB builds the shared fixture: purchases/signs tables plus
// the full model registry.
func columnarDB(t *testing.T) *DB {
	t.Helper()
	db := fixtureDB(t)
	db.Boxes.MustRegister(blackbox.NewOverload())
	db.Boxes.MustRegister(blackbox.UserUsage{})
	signs := MustNewTable("sign", "tag")
	signs.MustAppend(Row{Float(1), Str("pos")})
	signs.MustAppend(Row{Float(-1), Str("neg")})
	if err := db.CreateTable("signs", signs); err != nil {
		t.Fatal(err)
	}
	return db
}

// assertBitIdentical runs plan through RunDistribution at every block
// size × worker × chunk size grid point and requires a Distribution
// deeply equal to the oracle's (or an error from both).
func assertBitIdentical(t *testing.T, plan Plan, params map[string]float64, worlds int) {
	t.Helper()
	assertBitIdenticalOn(t, plan, params, worlds, columnarBlockSizes, columnarWorkers)
}

// assertBitIdenticalOn is assertBitIdentical over the given block sizes
// and worker counts.
func assertBitIdenticalOn(t *testing.T, plan Plan, params map[string]float64, worlds int, blockSizes, workerCounts []int) {
	t.Helper()
	if err := oracleDiff(plan, params, worlds, blockSizes, workerCounts, columnarChunkSizes); err != nil {
		t.Fatal(err)
	}
}

// oracleDiff runs plan through RunDistribution at every block size ×
// worker × chunk size grid point and reports the first point where it
// disagrees with the oracle: one fails and the other does not, or both
// succeed with Distributions that differ (cells compared by float
// bits, so NaN cells compare equal). An oracle panic counts as its
// failure, as a model panic on a worker is the executor's.
func oracleDiff(plan Plan, params map[string]float64, worlds int, blockSizes, workerCounts, chunkSizes []int) error {
	for _, bw := range blockSizes {
		opts := WorldsOptions{
			Worlds: worlds, MasterSeed: 0x1234, blockWorlds: bw,
		}
		want, wantErr := func() (d *Distribution, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("oracle: panic: %v", r)
				}
			}()
			return refDistribution(plan, params, opts)
		}()
		for _, workers := range workerCounts {
			for _, chunk := range chunkSizes {
				opts.Workers, opts.chunkRows = workers, chunk
				got, gotErr := RunDistribution(plan, params, opts)
				if (wantErr == nil) != (gotErr == nil) {
					return fmt.Errorf("bw=%d workers=%d chunk=%d: oracle err %v, executor err %v", bw, workers, chunk, wantErr, gotErr)
				}
				if wantErr == nil && !sameDistribution(want, got) {
					return fmt.Errorf("bw=%d workers=%d chunk=%d: Distribution diverges from the oracle", bw, workers, chunk)
				}
			}
		}
	}
	return nil
}

// sameDistribution reports whether a and b are equal, comparing each
// cell's moments by their float bits.
func sameDistribution(a, b *Distribution) bool {
	if !reflect.DeepEqual(a.Schema, b.Schema) || a.Worlds != b.Worlds ||
		!reflect.DeepEqual(a.KeyRows, b.KeyRows) || len(a.Cells) != len(b.Cells) {
		return false
	}
	bits := math.Float64bits
	for r, row := range a.Cells {
		if len(row) != len(b.Cells[r]) {
			return false
		}
		for c, x := range row {
			y := b.Cells[r][c]
			if x.N != y.N || bits(x.Mean) != bits(y.Mean) || bits(x.StdDev) != bits(y.StdDev) ||
				bits(x.Min) != bits(y.Min) || bits(x.Max) != bits(y.Max) {
				return false
			}
		}
	}
	return true
}

// vgExtendPlan builds Extend(base, vg=DemandModel(@week, 52)) over the
// given base plan.
func vgExtendPlan(t *testing.T, db *DB, base Plan, name string) *ExtendPlan {
	t.Helper()
	bound := mustBind(t, "DemandModel(@week, 52)", base.Schema(), db.Boxes)
	ext, err := NewExtendPlan(base, []NamedBound{{Name: name, Expr: bound}})
	if err != nil {
		t.Fatal(err)
	}
	return ext
}

func TestColumnarSingleVG(t *testing.T) {
	// The fresh-lane case: one VG draw per world applies its draw
	// vectors from the call site's table with no stream
	// materialization.
	db := columnarDB(t)
	plan := vgExtendPlan(t, db, ValuesPlan{}, "demand")
	assertBitIdentical(t, plan, map[string]float64{"week": 20}, 300)
}

func TestColumnarMultiVGWithCase(t *testing.T) {
	// Two draws per world: the fresh-lane draw must be replayed into
	// live streams before the second draw, and the CASE must combine
	// both columns.
	db := columnarDB(t)
	ext1 := vgExtendPlan(t, db, ValuesPlan{}, "demand")
	capacity := mustBind(t,
		"CapacityModel(@week, 8, 24)",
		ext1.Schema(), db.Boxes)
	ext2, err := NewExtendPlan(ext1, []NamedBound{{Name: "capacity", Expr: capacity}})
	if err != nil {
		t.Fatal(err)
	}
	over := mustBind(t,
		"CASE WHEN capacity < demand THEN 1 ELSE 0 END",
		ext2.Schema(), db.Boxes)
	ext3, err := NewExtendPlan(ext2, []NamedBound{{Name: "overload", Expr: over}})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, ext3, map[string]float64{"week": 30}, 300)
}

// TestFreshLaneReplaysMultiVariateDraw: the fresh lane applies
// Capacity's 4-variate draw vector, and the second, bound Capacity
// column makes materialize replay that Draw in every world before it
// binds its own week and purchases.
func TestFreshLaneReplaysMultiVariateDraw(t *testing.T) {
	db := columnarDB(t)
	plan, err := NewExtendPlan(ValuesPlan{}, []NamedBound{
		{Name: "capacity", Expr: mustBind(t, "CapacityModel(@week, 8, 24)", Schema{}, db.Boxes)},
		{Name: "later", Expr: mustBind(t, "CapacityModel(@week, 16, 32)", Schema{}, db.Boxes)},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, plan, map[string]float64{"week": 20}, 300)
}

// TestFreshLaneAcrossMasterSeeds: one plan run under master seed A,
// then B, then A again, at one worker and two, returns each run what a
// freshly built plan and the oracle return: a run under a new master
// replaces the call site's draw table rather than reading another
// master's draws.
func TestFreshLaneAcrossMasterSeeds(t *testing.T) {
	db := columnarDB(t)
	params := map[string]float64{"week": 20}
	plan := vgExtendPlan(t, db, ValuesPlan{}, "demand")
	for _, workers := range []int{1, 2} {
		for _, master := range []uint64{0xA, 0xB, 0xA} {
			opts := WorldsOptions{Worlds: 700, MasterSeed: master, Workers: workers}
			got, err := RunDistribution(plan, params, opts)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := RunDistribution(vgExtendPlan(t, db, ValuesPlan{}, "demand"), params, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refDistribution(plan, params, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, fresh) || !reflect.DeepEqual(got, ref) {
				t.Fatalf("workers %d, master %#x: the reused plan's answer differs from a fresh plan's or the oracle's", workers, master)
			}
		}
	}
}

// countingBox is a model with neither a DrawBox table nor a PointBox
// binding that counts its Eval calls.
type countingBox struct{ evals *atomic.Int64 }

func (countingBox) Name() string { return "Counted" }
func (countingBox) Arity() int   { return 1 }
func (b countingBox) Eval(args []float64, r *rng.Rand) float64 {
	b.evals.Add(1)
	return args[0] + r.StdNormal()
}

// TestScalarFirstVGEvaluatesOncePerWorld: the fresh lane opens only for
// a DrawBox, so in a one-block query whose first VG column is none and
// whose second forces live streams, the first box runs once per world
// — not once in the lane and again when the second column's
// materialize replays it — and the answer still matches the oracle.
func TestScalarFirstVGEvaluatesOncePerWorld(t *testing.T) {
	const worlds = 200
	evals := new(atomic.Int64)
	db := columnarDB(t)
	db.Boxes.MustRegister(countingBox{evals})
	counted := mustBind(t, "Counted(@week)", Schema{}, db.Boxes)
	ext, err := NewExtendPlan(ValuesPlan{}, []NamedBound{{Name: "counted", Expr: counted}})
	if err != nil {
		t.Fatal(err)
	}
	plan := vgExtendPlan(t, db, ext, "demand")
	params := map[string]float64{"week": 20}
	opts := WorldsOptions{Worlds: worlds, MasterSeed: 0x1234, Workers: 1}
	if _, err := RunDistribution(plan, params, opts); err != nil {
		t.Fatal(err)
	}
	if got := evals.Load(); got != worlds {
		t.Errorf("one block of %d worlds evaluated the first VG column %d times, want %d", worlds, got, worlds)
	}
	assertBitIdentical(t, plan, params, worlds)
}

func TestColumnarAggregateSumsOverVGDraws(t *testing.T) {
	// Data-dependent draws (one per row per world) under several sums
	// at once: a drawn one, a deterministic one, and SUM(1).
	db := columnarDB(t)
	scan, _ := db.Scan("purchases")
	noisy := mustBind(t, "volume * DemandModel(week, 99)", scan.Schema(), db.Boxes)
	week := mustBind(t, "week", scan.Schema(), db.Boxes)
	one := mustBind(t, "1", scan.Schema(), db.Boxes)
	plan, err := NewAggregatePlan(scan,
		[]AggSpec{
			{Arg: noisy, Name: "total"},
			{Arg: one, Name: "n"},
			{Arg: week, Name: "weeks"},
		})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, plan, nil, 300)
}

// signSelectPlan builds the world-varying selection with stable
// cardinality: two rows carrying signs ±1 over one shared uncertain
// column would double-draw, so each row draws its own vg and the
// predicate sign·(vg−week) > 0 keeps exactly one row per world almost
// surely — different physical rows in different worlds, which
// exercises per-world positional compaction.
func signSelectPlan(t *testing.T, db *DB) Plan {
	t.Helper()
	scan, _ := db.Scan("signs")
	ext := vgExtendPlan(t, db, scan, "vg")
	pred := mustBind(t, "sign * (vg - @week) > 0", ext.Schema(), db.Boxes)
	return &SelectPlan{Child: ext, Pred: pred, Desc: "sign*(vg-week) > 0"}
}

func TestColumnarWorldVaryingSelect(t *testing.T) {
	db := columnarDB(t)
	plan := signSelectPlan(t, db)
	// Cardinality is 1 in every world unless two independent draws
	// land on opposite sides in a correlated way — with one draw per
	// row the counts can vary; both executors must then agree on the
	// error too, which assertBitIdentical checks.
	assertBitIdentical(t, plan, map[string]float64{"week": 20}, 250)
}

// peekBox is a model that reads its world's next uniform without
// consuming it: every call in a world sees the same value, so rows
// can be kept or dropped together in one world and differently in
// another.
type peekBox struct{}

func (peekBox) Name() string { return "Peek" }
func (peekBox) Arity() int   { return 0 }
func (peekBox) Eval(_ []float64, r *rng.Rand) float64 {
	c := *r
	return c.Float64()
}

func TestColumnarMaskedRowsCompactPerWorld(t *testing.T) {
	// Two rows, and each world keeps exactly one of them, chosen by a
	// draw both rows see, so the result has one row whose physical
	// source differs across worlds. A VG column after the WHERE draws
	// only in the kept row. Result row 0 of world w must be that
	// world's one kept row: its sign, its draw, and in world 0 its
	// tag.
	db := columnarDB(t)
	db.Boxes.MustRegister(peekBox{})
	scan, _ := db.Scan("signs")
	pred := mustBind(t, "sign * (Peek() - 0.5) > 0",
		scan.Schema(), db.Boxes)
	sel := &SelectPlan{Child: scan, Pred: pred, Desc: "sign*(Peek()-0.5) > 0"}
	plan := vgExtendPlan(t, db, sel, "vg")
	params := map[string]float64{"week": 20}
	assertBitIdentical(t, plan, params, 300)
	// Over a few master seeds, world 0 keeps each side at least once,
	// so its key row must follow the kept row too.
	tags := map[string]bool{}
	for seed := uint64(0); seed < 8; seed++ {
		opts := WorldsOptions{Worlds: 20, MasterSeed: seed, blockWorlds: 7}
		want, _ := refDistribution(plan, params, opts)
		got, err := RunDistribution(plan, params, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("master seed %d: Distribution diverges from the oracle", seed)
		}
		if s := got.Cells[0][0]; got.NumRows() != 1 || s.Min != -1 || s.Max != 1 {
			t.Fatalf("master seed %d: %d rows, sign range [%g, %g]; want one row kept from either side", seed, got.NumRows(), s.Min, s.Max)
		}
		tag, _ := got.KeyRows[0][1].Text()
		tags[tag] = true
	}
	if !tags["pos"] || !tags["neg"] {
		t.Fatalf("world 0 kept only %v over 8 master seeds; want both sides", tags)
	}
}

func TestColumnarMaskedAggregate(t *testing.T) {
	// A world-varying selection under a global aggregate: per-world
	// masks flow into the fold, and the output is always one row.
	db := columnarDB(t)
	scan, _ := db.Scan("signs")
	ext := vgExtendPlan(t, db, scan, "vg")
	pred := mustBind(t, "vg > @week", ext.Schema(), db.Boxes)
	sel := &SelectPlan{Child: ext, Pred: pred, Desc: "vg > week"}
	arg := mustBind(t, "vg", sel.Schema(), db.Boxes)
	plan, err := NewAggregatePlan(sel, []AggSpec{
		{Arg: arg, Name: "total"},
		{Arg: mustBind(t, "1", sel.Schema(), db.Boxes), Name: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, plan, map[string]float64{"week": 20}, 300)
}

func TestColumnarCaseBranchDraws(t *testing.T) {
	// VG draws inside CASE branches: each branch must draw only in the
	// worlds that take it. A trailing draw observes each world's stream
	// position, so an extra draw in either branch shows up.
	db := columnarDB(t)
	for _, c := range []string{
		"CASE WHEN demand > @week THEN CapacityModel(@week, 8, 24) ELSE 0 END",
		"CASE WHEN demand > @week THEN 0 ELSE CapacityModel(@week, 8, 24) END",
	} {
		ext := vgExtendPlan(t, db, ValuesPlan{}, "demand")
		plan, err := NewExtendPlan(ext, []NamedBound{{Name: "c", Expr: mustBind(t, c, ext.Schema(), db.Boxes)}})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, vgExtendPlan(t, db, plan, "after"), map[string]float64{"week": 20}, 300)
	}
}

// TestColumnarFuncVGOnLiveStreams: a box that is not a PointBox draws
// through the per-world Eval loop, on live streams after a first draw
// and under a CASE mask, as the oracle does.
func TestColumnarFuncVGOnLiveStreams(t *testing.T) {
	db := columnarDB(t)
	db.Boxes.MustRegister(blackbox.Func{FuncName: "Lin", NArgs: 1, Fn: func(a []float64, r *rng.Rand) float64 {
		return a[0] + r.Uniform(0, 1)
	}})
	ext := vgExtendPlan(t, db, ValuesPlan{}, "demand")
	plan, err := NewExtendPlan(ext, []NamedBound{
		{Name: "lin", Expr: mustBind(t, "Lin(@week)", ext.Schema(), db.Boxes)},
		{Name: "masked", Expr: mustBind(t, "CASE WHEN demand > @week THEN Lin(2) END", ext.Schema(), db.Boxes)},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, vgExtendPlan(t, db, plan, "after"), map[string]float64{"week": 20}, 300)
}

// TestColumnarUserSelectionBoundPerRow: UserSelection with an argument
// uniform across worlds binds once per row and draws every world's
// lane by one EvalBound call, bit-identical to the oracle's per-world
// Eval; a trailing draw observes each world's stream position.
func TestColumnarUserSelectionBoundPerRow(t *testing.T) {
	db := columnarDB(t)
	db.Boxes.MustRegister(blackbox.NewUserSelection(60, 9))
	scan, _ := db.Scan("purchases")
	sel := mustBind(t, "UserSelection(week + @current_week)", scan.Schema(), db.Boxes)
	ext, err := NewExtendPlan(scan, []NamedBound{{Name: "sel", Expr: sel}})
	if err != nil {
		t.Fatal(err)
	}
	plan := vgExtendPlan(t, db, ext, "after")
	assertBitIdenticalOn(t, plan, map[string]float64{"current_week": 20, "week": 30}, 300, []int{7, 256}, []int{1, 2})
}

func TestColumnarBuiltinsParamsAndNulls(t *testing.T) {
	db := columnarDB(t)
	tbl := MustNewTable("a", "b")
	tbl.MustAppend(Row{Float(4), Float(2)})
	tbl.MustAppend(Row{Null(), Float(3)})
	tbl.MustAppend(Row{Float(9), Null()})
	scan := NewScanPlan("t", tbl)
	boxes := db.Boxes
	outs := []NamedBound{
		{Name: "s", Expr: mustBind(t, "SQRT(a)", scan.Schema(), boxes)},
		{Name: "p", Expr: mustBind(t, "POW(a, b)", scan.Schema(), boxes)},
		{Name: "m", Expr: mustBind(t, "MINV(a, @week)", scan.Schema(), boxes)},
		{Name: "q", Expr: mustBind(t, "a / (b - b)", scan.Schema(), boxes)},
		{Name: "n", Expr: mustBind(t, "-a", scan.Schema(), boxes)},
		{Name: "vgnull", Expr: mustBind(t, "DemandModel(a, b)", scan.Schema(), boxes)},
		{Name: "cmp", Expr: mustBind(t, "a >= b", scan.Schema(), boxes)},
		{Name: "lg", Expr: mustBind(t, "a > 0 AND NOT b < 0", scan.Schema(), boxes)},
	}
	plan, err := NewExtendPlan(scan, outs)
	if err != nil {
		t.Fatal(err)
	}
	// The NULL-argument rows must skip the VG draw in every world
	// (vgnull on rows 2 and 3), shifting no stream positions.
	assertBitIdentical(t, plan, map[string]float64{"week": 3}, 200)
}

func TestColumnarOpaquePlanFallback(t *testing.T) {
	// A hand-written Plan (delegating ExecuteBlock) inside a columnar
	// run: draws after it must continue each world's stream where the
	// wrapped operator left it.
	db := columnarDB(t)
	ext := vgExtendPlan(t, db, ValuesPlan{}, "demand")
	wrapped := opaquePlan{ext}
	after := vgExtendPlan(t, db, wrapped, "vg2")
	assertBitIdentical(t, after, map[string]float64{"week": 15}, 200)
}

// opaquePlan is a third-party operator: it implements Plan by
// delegation, so the executor sees a type it does not know.
type opaquePlan struct{ inner Plan }

func (o opaquePlan) Schema() Schema { return o.inner.Schema() }
func (o opaquePlan) ExecuteBlock(c *BlockCtx) (*BlockTable, error) {
	return o.inner.ExecuteBlock(c)
}
func (o opaquePlan) String() string { return "Opaque(" + o.inner.String() + ")" }

func TestColumnarCardinalityErrorParity(t *testing.T) {
	// A filter over an uncertain value with genuinely varying counts
	// must fail identically (message and all) in the executor and the
	// oracle.
	db := columnarDB(t)
	ext := vgExtendPlan(t, db, ValuesPlan{}, "demand")
	pred := mustBind(t, "demand > @week", ext.Schema(), db.Boxes)
	plan := &SelectPlan{Child: ext, Pred: pred, Desc: "demand > week"}
	opts := WorldsOptions{Worlds: 200, MasterSeed: 7, blockWorlds: 64}
	_, wantErr := refDistribution(plan, map[string]float64{"week": 20}, opts)
	_, gotErr := RunDistribution(plan, map[string]float64{"week": 20}, opts)
	if wantErr == nil || gotErr == nil {
		t.Fatalf("expected both to reject varying cardinality (oracle %v, executor %v)", wantErr, gotErr)
	}
	if wantErr.Error() != gotErr.Error() {
		t.Fatalf("error mismatch:\noracle:   %v\nexecutor: %v", wantErr, gotErr)
	}
	if !strings.Contains(gotErr.Error(), "world-invariant") {
		t.Fatalf("unexpected error %v", gotErr)
	}
}

func TestColumnarAggregateOverWorldVaryingNulls(t *testing.T) {
	// An argument that is NULL in some worlds and not others (each
	// draw lands above its week about half the time, so some worlds
	// keep no row): each world's SUM folds only its own non-NULL lanes,
	// and is NULL in a world that has none.
	db := columnarDB(t)
	scan, _ := db.Scan("purchases")
	arg := mustBind(t, "CASE WHEN DemandModel(week, 99) > week THEN volume END",
		scan.Schema(), db.Boxes)
	plan, err := NewAggregatePlan(scan, []AggSpec{{Arg: arg, Name: "sum"}})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, plan, nil, 300)
}

func TestColumnarAggregateErrorParity(t *testing.T) {
	// A non-numeric aggregate argument after a VG draw fails in both
	// the executor and the oracle at every block size, for the same
	// cause.
	db := columnarDB(t)
	scan, _ := db.Scan("purchases")
	ext := vgExtendPlan(t, db, scan, "vg")
	plan, err := NewAggregatePlan(ext, []AggSpec{
		{Arg: mustBind(t, "vg", ext.Schema(), db.Boxes), Name: "total"},
		{Arg: mustBind(t, "region", ext.Schema(), db.Boxes), Name: "regions"},
	})
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]float64{"week": 20}
	for _, bw := range columnarBlockSizes {
		opts := WorldsOptions{Worlds: 50, MasterSeed: 7, blockWorlds: bw}
		_, wantErr := refDistribution(plan, params, opts)
		_, gotErr := RunDistribution(plan, params, opts)
		if wantErr == nil || gotErr == nil {
			t.Fatalf("bw=%d: expected both to reject MAX(region) (oracle %v, executor %v)", bw, wantErr, gotErr)
		}
		// The prefixes name a world and a block range respectively;
		// the cause must be the same conversion failure.
		for _, err := range []error{wantErr, gotErr} {
			if !strings.HasSuffix(err.Error(), "pdb: STRING is not numeric") {
				t.Fatalf("bw=%d: unexpected error %v", bw, err)
			}
		}
	}
}

func TestColumnarVGSumBitIdentical(t *testing.T) {
	// SELECT SUM(UserUsage(@week, join_week, base, growth, vol)) FROM
	// users, the tree Fig. 7's UserSelect wrapper runs: one draw per
	// row per world, folded straight from the VG column's lanes. A row
	// with a NULL argument sits mid-table: it draws nothing, so every
	// later row's draws would shift if it did, and it adds nothing.
	users := blackbox.GenerateUsers(60, 11)
	tbl := MustNewTable("join_week", "base", "growth", "vol")
	for i, u := range users {
		if i == len(users)/2 {
			tbl.MustAppend(Row{Float(0), Null(), Float(1), Float(0.1)})
		}
		tbl.MustAppend(Row{Float(u.JoinWeek), Float(u.BaseCores), Float(u.GrowthRate), Float(u.Volatility)})
	}
	db := NewDB()
	db.Boxes.MustRegister(blackbox.UserUsage{})
	if err := db.CreateTable("users", tbl); err != nil {
		t.Fatal(err)
	}
	scan, _ := db.Scan("users")
	usage := mustBind(t, "UserUsage(@week, join_week, base, growth, vol)", scan.Schema(), db.Boxes)
	plan, err := NewAggregatePlan(scan, []AggSpec{{Arg: usage, Name: "total"}})
	if err != nil {
		t.Fatal(err)
	}
	// One subtest per grid point, so a divergence names its block size
	// and worker count and the other points still run.
	params := map[string]float64{"week": 40}
	for _, bw := range columnarBlockSizes {
		opts := WorldsOptions{Worlds: 300, MasterSeed: 0x1234, blockWorlds: bw}
		want, err := refDistribution(plan, params, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range columnarWorkers {
			opts.Workers = workers
			t.Run(fmt.Sprintf("bw=%d/workers=%d", bw, workers), func(t *testing.T) {
				got, err := RunDistribution(plan, params, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatal("Distribution diverges from the oracle")
				}
			})
		}
	}
}

func TestColumnarVGSumWorldDependentArgs(t *testing.T) {
	// SUM(UserUsage(...)) with base drawn per world: the VG column's
	// arguments are no longer uniform across the block, so the call
	// takes the per-lane path rather than one argument vector per row.
	// "null" is NULL in every world, but a draw decided that, so no row
	// contributes; "mixed" is NULL in the worlds whose draw (mean @week)
	// falls at or below @week, about half of them, so each row draws in
	// the other worlds alone.
	users := blackbox.GenerateUsers(40, 3)
	tbl := MustNewTable("join_week", "base", "growth", "vol")
	for _, u := range users {
		tbl.MustAppend(Row{Float(u.JoinWeek), Float(u.BaseCores), Float(u.GrowthRate), Float(u.Volatility)})
	}
	db := NewDB()
	db.Boxes.MustRegister(blackbox.NewDemand())
	db.Boxes.MustRegister(blackbox.UserUsage{})
	if err := db.CreateTable("users", tbl); err != nil {
		t.Fatal(err)
	}
	scan, _ := db.Scan("users")
	for _, tc := range []struct {
		name string
		base string
	}{
		{"float", "DemandModel(@week, 99)"},
		{"null", "CASE WHEN DemandModel(@week, 99) < -1e9 THEN 1 END"},
		{"mixed", "CASE WHEN DemandModel(@week, 99) > @week THEN base END"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			usage := mustBind(t, "UserUsage(@week, join_week, "+tc.base+", growth, vol)",
				scan.Schema(), db.Boxes)
			plan, err := NewAggregatePlan(scan, []AggSpec{{Arg: usage, Name: "total"}})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, plan, map[string]float64{"week": 40}, 300)
		})
	}
}

func TestColumnarSumOverNullLanesUnderMasks(t *testing.T) {
	// Extend → Select → Aggregate: SUMs over materialized columns on
	// rows a world-varying selection keeps in only some worlds. high is
	// NULL in the worlds whose draw fell at or below the week, so a
	// kept row carries NULL lanes too; redraw is a VG call over high,
	// so it draws, and is non-NULL, only where high is; is_high has
	// bool lanes, which sum as 0/1. The fold must skip masked-off
	// worlds and NULL lanes.
	db := columnarDB(t)
	scan, _ := db.Scan("purchases")
	ext := vgExtendPlan(t, db, scan, "vg")
	ext2, err := NewExtendPlan(ext, []NamedBound{
		{Name: "high", Expr: mustBind(t, "CASE WHEN vg > @week THEN vg END", ext.Schema(), db.Boxes)},
		{Name: "is_high", Expr: mustBind(t, "vg > @week", ext.Schema(), db.Boxes)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ext3, err := NewExtendPlan(ext2, []NamedBound{
		{Name: "redraw", Expr: mustBind(t, "DemandModel(high, 52)", ext2.Schema(), db.Boxes)},
	})
	if err != nil {
		t.Fatal(err)
	}
	pred := mustBind(t, "vg < @week + 1", ext3.Schema(), db.Boxes)
	sel := &SelectPlan{Child: ext3, Pred: pred, Desc: "vg < week + 1"}
	plan, err := NewAggregatePlan(sel, []AggSpec{
		{Arg: mustBind(t, "high", sel.Schema(), db.Boxes), Name: "high"},
		{Arg: mustBind(t, "redraw", sel.Schema(), db.Boxes), Name: "redraw"},
		{Arg: mustBind(t, "is_high", sel.Schema(), db.Boxes), Name: "n_high"},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, plan, map[string]float64{"week": 20}, 300)
}

// namedExpr pairs an output name with an expression's SQL text.
type namedExpr struct {
	name string
	expr string
}

// loweredPlan hand-builds the Base → Extend → Select → Project shape
// exec.BuildPDBPlan lowers a SELECT to: extend the computed items
// (later items read earlier ones), filter, then project exactly the
// SELECT list. An empty where omits the Select.
func loweredPlan(t *testing.T, db *DB, base Plan, extend []namedExpr, where string, finals []string) Plan {
	t.Helper()
	var outs []NamedBound
	schema := base.Schema()
	for _, e := range extend {
		outs = append(outs, NamedBound{Name: e.name, Expr: mustBind(t, e.expr, schema, db.Boxes)})
		schema = schema.Concat(Schema{{Name: e.name}})
	}
	var top Plan
	top, err := NewExtendPlan(base, outs)
	if err != nil {
		t.Fatal(err)
	}
	if where != "" {
		top = &SelectPlan{Child: top, Pred: mustBind(t, where, top.Schema(), db.Boxes), Desc: where}
	}
	var proj []NamedBound
	for _, name := range finals {
		proj = append(proj, NamedBound{Name: name, Expr: mustBind(t, name, top.Schema(), db.Boxes)})
	}
	plan, err := NewProjectPlan(top, proj)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestColumnarLoweredShapes(t *testing.T) {
	db := columnarDB(t)
	tbl := MustNewTable("week", "volume")
	tbl.MustAppend(Row{Float(10), Float(40)})
	tbl.MustAppend(Row{Float(20), Float(60)})
	scan := NewScanPlan("lowered", tbl)
	// SELECT week, volume * DemandModel(week, 99) AS noisy
	//   FROM lowered WHERE volume > 15
	from := loweredPlan(t, db, scan,
		[]namedExpr{{"noisy", "volume * DemandModel(week, 99)"}},
		"volume > 15", []string{"week", "noisy"})
	assertBitIdentical(t, from, nil, 300)
	// SELECT volume AS v FROM lowered WHERE DemandModel(week, 99) > 0
	where := loweredPlan(t, db, scan,
		[]namedExpr{{"v", "volume"}},
		"DemandModel(week, 99) > 0", []string{"v"})
	assertBitIdentical(t, where, nil, 300)
	// Fig. 1: one Extend whose CASE reads the two VG outputs before it
	// in the same operator, under a Project and no FROM.
	fig1 := loweredPlan(t, db, ValuesPlan{},
		[]namedExpr{
			{"demand", "DemandModel(@current_week, @feature_release)"},
			{"capacity", "CapacityModel(@current_week, @purchase1, @purchase2)"},
			{"overload", "CASE WHEN capacity < demand THEN 1 ELSE 0 END"},
		},
		"", []string{"demand", "capacity", "overload"})
	assertBitIdentical(t, fig1, map[string]float64{
		"current_week": 30, "purchase1": 4, "purchase2": 12, "feature_release": 36,
	}, 300)
}

func TestColumnarKeyRows(t *testing.T) {
	// String cells of any result column surface as KeyRows; numeric
	// cells stay NULL there.
	db := columnarDB(t)
	scan, _ := db.Scan("purchases")
	dist, err := RunDistribution(scan, nil, WorldsOptions{Worlds: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.KeyRows) != 3 {
		t.Fatalf("KeyRows = %v", dist.KeyRows)
	}
	for r, want := range []string{"east", "west", "east"} {
		if s, _ := dist.KeyRows[r][2].Text(); s != want {
			t.Fatalf("KeyRows[%d][2] = %v, want %s", r, dist.KeyRows[r][2], want)
		}
	}
	if !dist.KeyRows[0][0].IsNull() || !dist.KeyRows[0][1].IsNull() {
		t.Fatal("numeric cell leaked into KeyRows")
	}
}
