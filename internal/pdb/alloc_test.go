package pdb

import (
	"fmt"
	"testing"

	"jigsaw/internal/blackbox"
)

// The columnar hot path must be near-allocation-free per world at
// steady state: block contexts, vectors, masks and flattened outputs
// all recycle through pools and arenas, so a run's allocations are a
// per-run constant (result accumulators, summaries, seed vector) plus
// noise — nothing proportional to worlds × rows. These budgets are
// per *world*, measured over full RunDistribution calls with warm
// pools, so they catch any per-world or per-row allocation sneaking
// back into expressions, operators or the commit loop.

// allocPipeline builds the scan→extend(VG)→select→aggregate pipeline
// the budgets pin, over nRows data rows.
func allocPipeline(t *testing.T, nRows int) Plan {
	t.Helper()
	ext, boxes := usersUsagePlan(t, nRows)
	pred := mustBind(t, "join_week > -1", ext.Schema(), boxes)
	sel := &SelectPlan{Child: ext, Pred: pred, Desc: "join_week > -1"}
	arg := mustBind(t, "usage", sel.Schema(), boxes)
	plan, err := NewAggregatePlan(sel, []AggSpec{
		{Arg: arg, Name: "total"},
		{Arg: mustBind(t, "1", sel.Schema(), boxes), Name: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// usersUsagePlan is Scan(users) → Extend(usage = UserUsage(@week, ...))
// over nRows generated users: one result row per user, each cell
// aggregated across worlds.
func usersUsagePlan(t testing.TB, nRows int) (Plan, *blackbox.Registry) {
	t.Helper()
	db := NewDB()
	db.Boxes.MustRegister(blackbox.UserUsage{})
	users := blackbox.GenerateUsers(nRows, 17)
	tbl := MustNewTable("join_week", "base", "growth", "vol")
	for _, u := range users {
		tbl.MustAppend(Row{Float(u.JoinWeek), Float(u.BaseCores), Float(u.GrowthRate), Float(u.Volatility)})
	}
	if err := db.CreateTable("users", tbl); err != nil {
		t.Fatal(err)
	}
	scan, _ := db.Scan("users")
	boxes := db.Boxes
	usage := mustBind(t, "UserUsage(@week, join_week, base, growth, vol)", scan.Schema(), boxes)
	ext, err := NewExtendPlan(scan, []NamedBound{{Name: "usage", Expr: usage}})
	if err != nil {
		t.Fatal(err)
	}
	return ext, boxes
}

// columnarAllocBudgetPerWorld bounds steady-state allocations per
// world for the scan→extend→select→aggregate pipeline at paper scale
// (1000 worlds, 200 rows). The real per-run constant is a few dozen
// allocations — under 0.1/world — so a budget of 0.5 has headroom for
// pool jitter while still failing loudly on any per-world regression
// (which would show up as ≥1/world, or ≥rows/world for per-row ones).
const columnarAllocBudgetPerWorld = 0.5

func TestColumnarPipelineAllocsPerWorld(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector (sync.Pool drops puts)")
	}
	const worlds = 1000
	plan := allocPipeline(t, 200)
	params := map[string]float64{"week": 40}
	opts := WorldsOptions{Worlds: worlds, MasterSeed: 0x5161}
	// Warm the pools (block contexts, outputs, arena growth).
	if _, err := RunDistribution(plan, params, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunDistribution(plan, params, opts); err != nil {
			t.Fatal(err)
		}
	})
	if perWorld := allocs / worlds; perWorld > columnarAllocBudgetPerWorld {
		t.Errorf("columnar pipeline allocates %.3f/world (%.0f/run), budget %.2f/world",
			perWorld, allocs, columnarAllocBudgetPerWorld)
	}
}

func TestColumnarSingleVGAllocsPerWorld(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector (sync.Pool drops puts)")
	}
	// The fresh-lane model query (SELECT DemandModel(@w, 52)): the
	// whole block is one Apply of the call site's draw table, so the
	// run cost is dominated by the fixed result machinery.
	const worlds = 1000
	db := NewDB()
	db.Boxes.MustRegister(blackbox.NewDemand())
	bound := mustBind(t, "DemandModel(@week, 52)", Schema{}, db.Boxes)
	plan, err := NewExtendPlan(ValuesPlan{}, []NamedBound{{Name: "demand", Expr: bound}})
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]float64{"week": 20}
	opts := WorldsOptions{Worlds: worlds, MasterSeed: 0x5161}
	if _, err := RunDistribution(plan, params, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunDistribution(plan, params, opts); err != nil {
			t.Fatal(err)
		}
	})
	if perWorld := allocs / worlds; perWorld > columnarAllocBudgetPerWorld {
		t.Errorf("single-VG query allocates %.3f/world (%.0f/run), budget %.2f/world",
			perWorld, allocs, columnarAllocBudgetPerWorld)
	}
}

// TestResultCellsAllocsFlatInRows pins that a run's allocations do not
// grow with its result cells: the commit loop folds every cell into
// one flat accumulator array and one backing summary array, and a
// block context reuses its row-pointer chunks, so a 2000-row answer
// allocates no more than a 200-row one plus a small constant (its
// larger buffers are still one allocation each).
func TestResultCellsAllocsFlatInRows(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector (sync.Pool drops puts)")
	}
	params := map[string]float64{"week": 40}
	opts := WorldsOptions{Worlds: 256, MasterSeed: 0x5161, Workers: 1}
	perRun := func(rows int) float64 {
		plan, _ := usersUsagePlan(t, rows)
		if _, err := RunDistribution(plan, params, opts); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := RunDistribution(plan, params, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	const slack = 4
	small, large := perRun(200), perRun(2000)
	t.Logf("allocs per run: %.0f at 200 rows, %.0f at 2000 rows", small, large)
	if large > small+slack {
		t.Errorf("a 2000-row answer allocates %.0f per run, a 200-row one %.0f: more than %d apart, so some allocation grows with the result cells",
			large, small, slack)
	}
}

// TestBlockScratchFlatInRows pins that a block's arena does not grow
// with the table: one block of the pdb_users shape, Scan → Extend(VG)
// → Select → Project, runs its rows a chunk at a time and recycles the
// arena between chunks, so it leaves as many materialized columns
// after 8000 rows as after 200.
func TestBlockScratchFlatInRows(t *testing.T) {
	const worlds = 256
	columns := func(rows int) int {
		ext, boxes := usersUsagePlan(t, rows)
		sel := &SelectPlan{Child: ext, Pred: mustBind(t, "join_week < @week", ext.Schema(), boxes), Desc: "join_week < week"}
		plan, err := NewProjectPlan(sel, []NamedBound{
			{Name: "join_week", Expr: mustBind(t, "join_week", sel.Schema(), boxes)},
			{Name: "usage", Expr: mustBind(t, "usage", sel.Schema(), boxes)},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, out := &BlockCtx{}, &blockOut{}
		ctx.reset(0x5161, 0, worlds, map[string]float64{"week": 40}, nil)
		out.reset(0)
		if err := out.run(plan, planChunking(plan, 0), ctx); err != nil {
			t.Fatal(err)
		}
		if out.rows == 0 {
			t.Fatalf("%d users: the block kept no rows", rows)
		}
		n := 0
		for _, v := range ctx.vecs {
			if cap(v.f) >= worlds {
				n++
			}
		}
		return n
	}
	small, large := columns(200), columns(8000)
	t.Logf("materialized columns after one block: %d at 200 rows, %d at 8000 rows", small, large)
	if small != large {
		t.Errorf("one block left %d materialized columns over 8000 rows and %d over 200: the arena grows with the table", large, small)
	}
}

// TestAggregateReusesArgumentColumns pins that a SUM over a VG
// argument leaves two materialized columns in the block arena, the
// argument's and the result's, not one per row: the aggregate hands
// each folded row's Vecs back, so the next row draws into the same
// lanes.
func TestAggregateReusesArgumentColumns(t *testing.T) {
	const rows, worlds = 500, 64
	ext, _ := usersUsagePlan(t, rows)
	usage := ext.(*ExtendPlan).Outputs[0].Expr
	plan, err := NewAggregatePlan(ext.(*ExtendPlan).Child, []AggSpec{{Arg: usage, Name: "total"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &BlockCtx{}
	ctx.reset(0x5161, 0, worlds, map[string]float64{"week": 40}, nil)
	if _, err := plan.ExecuteBlock(ctx); err != nil {
		t.Fatal(err)
	}
	columns := 0
	for _, v := range ctx.vecs {
		if cap(v.f) >= worlds {
			columns++
		}
	}
	if columns > 2 {
		t.Errorf("a %d-row SUM left %d materialized columns in the arena, want 2", rows, columns)
	}
}

// TestOperatorBlockAllocs pins that a steady-state block of
// Scan → Extend(VG) → Select → Project allocates nothing: every
// operator takes its block table and row slice, and Select its mask
// list, from the block context's arena. The predicate varies by world,
// so Select keeps a mask per row.
func TestOperatorBlockAllocs(t *testing.T) {
	ext, boxes := usersUsagePlan(t, 300)
	pred := mustBind(t, "usage > base", ext.Schema(), boxes)
	sel := &SelectPlan{Child: ext, Pred: pred, Desc: "usage > base"}
	usage := mustBind(t, "usage", sel.Schema(), boxes)
	plan, err := NewProjectPlan(sel, []NamedBound{{Name: "usage", Expr: usage}})
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]float64{"week": 40}
	ctx := &BlockCtx{}
	var out *BlockTable
	run := func() {
		ctx.reset(0x5161, 0, 64, params, nil)
		if out, err = plan.ExecuteBlock(ctx); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if !out.masked() || len(out.Rows) == 0 {
		t.Fatalf("the block kept %d rows, masked %v; the plan must keep rows in some worlds only", len(out.Rows), out.masked())
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("a steady-state Scan → Extend → Select → Project block allocates %.1f, want 0", allocs)
	}
}

// masked reports whether any row carries a non-full mask.
func (t *BlockTable) masked() bool {
	for _, m := range t.Sel {
		if m != nil {
			return true
		}
	}
	return false
}

// blockAllocs returns the steady-state allocations of one block of
// plan at the given world count.
func blockAllocs(t *testing.T, plan Plan, params map[string]float64, worlds int) float64 {
	t.Helper()
	ctx := &BlockCtx{}
	run := func() {
		ctx.reset(0x5161, 0, worlds, params, nil)
		if _, err := plan.ExecuteBlock(ctx); err != nil {
			t.Fatal(err)
		}
	}
	run()
	return testing.AllocsPerRun(10, run)
}

// TestAggregateBlockAllocs pins that a steady-state block of
// Scan → SUM(UserUsage) allocates nothing: the per-world sums live in
// the result Vecs, which come from the block context's arena.
func TestAggregateBlockAllocs(t *testing.T) {
	ext, _ := usersUsagePlan(t, 300)
	usage := ext.(*ExtendPlan).Outputs[0].Expr
	plan, err := NewAggregatePlan(ext.(*ExtendPlan).Child, []AggSpec{{Arg: usage, Name: "total"}})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := blockAllocs(t, plan, map[string]float64{"week": 40}, 256); allocs != 0 {
		t.Errorf("a steady-state Scan → SUM(UserUsage) block allocates %.1f, want 0", allocs)
	}
}

// TestFreshDrawBlockAllocs pins that a fresh-lane draw allocates
// nothing: the block context keeps the one deferred draw and its
// argument buffer.
func TestFreshDrawBlockAllocs(t *testing.T) {
	db := NewDB()
	db.Boxes.MustRegister(blackbox.NewDemand())
	bound := mustBind(t, "DemandModel(@week, 52)", Schema{}, db.Boxes)
	plan, err := NewExtendPlan(ValuesPlan{}, []NamedBound{{Name: "demand", Expr: bound}})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := blockAllocs(t, plan, map[string]float64{"week": 20}, 256); allocs != 0 {
		t.Errorf("a steady-state SELECT DemandModel(@week, 52) block allocates %.1f, want 0", allocs)
	}
}

// TestBoundVGBlockAllocs pins that PointBox VG calls on live streams
// allocate nothing in a steady-state block: each binds into the block
// context's scratch and draws by one EvalBound call.
func TestBoundVGBlockAllocs(t *testing.T) {
	db := NewDB()
	db.Boxes.MustRegister(blackbox.NewDemand())
	db.Boxes.MustRegister(blackbox.NewCapacity())
	db.Boxes.MustRegister(blackbox.NewUserSelection(60, 9))
	var outs []NamedBound
	for i, src := range []string{"DemandModel(@week, 52)", "CapacityModel(@week, 8, 24)", "UserSelection(@week)"} {
		outs = append(outs, NamedBound{Name: fmt.Sprintf("c%d", i), Expr: mustBind(t, src, Schema{}, db.Boxes)})
	}
	plan, err := NewExtendPlan(ValuesPlan{}, outs)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := blockAllocs(t, plan, map[string]float64{"week": 20}, 256); allocs != 0 {
		t.Errorf("a steady-state block of bound Capacity and UserSelection draws allocates %.1f, want 0", allocs)
	}
}

// TestNumericLaneBlockAllocs pins that the numeric lane loop allocates
// nothing in a steady-state block: unary minus, arithmetic and a
// builtin over the materialized usage lanes each write into an arena
// Vec.
func TestNumericLaneBlockAllocs(t *testing.T) {
	ext, boxes := usersUsagePlan(t, 300)
	const src = "-usage * 2 + ABS(usage - base)"
	plan, err := NewExtendPlan(ext, []NamedBound{{Name: "x", Expr: mustBind(t, src, ext.Schema(), boxes)}})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := blockAllocs(t, plan, map[string]float64{"week": 40}, 256); allocs != 0 {
		t.Errorf("a steady-state block evaluating %s allocates %.1f, want 0", src, allocs)
	}
}
