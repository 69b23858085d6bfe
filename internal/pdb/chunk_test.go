package pdb

import (
	"fmt"
	"strings"
	"testing"
)

// A block runs a plan in which at most one operator draws over chunks
// of scan rows, and folds each chunk before the next runs. These tests
// hold such runs to the oracle where chunk boundaries matter: tables
// just under, at and over one and two chunks, and chunk sizes that
// split even a one-row table from its neighbours.

var chunkTableRows = []int{0, 1, 63, 64, 65, 129}
var chunkSizes = []int{1, 3, 64}

// chunkBlockSizes are a block of fewer worlds than a full chunk has
// rows and one of more. A one-world block is left out: it carries no
// rank (a row is kept in all of its worlds or none) and runs a 129-row
// table at chunk size 1 as 300 × 129 one-world chunks, the grid's
// costliest corner under -race.
var chunkBlockSizes = []int{7, 256}

// chunkDB returns the columnar fixture plus a table t of n rows: i is
// the row index, tag a string naming it and vol a stored float.
func chunkDB(t *testing.T, n int) (*DB, Plan) {
	t.Helper()
	db := columnarDB(t)
	db.Boxes.MustRegister(peekBox{})
	tbl := MustNewTable("i", "tag", "vol")
	for i := range n {
		tbl.MustAppend(Row{Float(float64(i)), Str(fmt.Sprintf("r%d", i)), Float(float64(10 + i%7))})
	}
	if err := db.CreateTable("t", tbl); err != nil {
		t.Fatal(err)
	}
	scan, _ := db.Scan("t")
	return db, scan
}

// chunkPlans builds the plans the chunk tests run over a table of n
// rows, by name.
func chunkPlans(t *testing.T, n int) []struct {
	name string
	plan Plan
} {
	t.Helper()
	db, scan := chunkDB(t, n)
	bind := func(src string, p Plan) BoundExpr { return mustBind(t, src, p.Schema(), db.Boxes) }
	project := func(p Plan, cols ...string) Plan {
		var outs []NamedBound
		for _, c := range cols {
			outs = append(outs, NamedBound{Name: c, Expr: bind(c, p)})
		}
		proj, err := NewProjectPlan(p, outs)
		if err != nil {
			t.Fatal(err)
		}
		return proj
	}
	sum := func(p Plan, args ...string) Plan {
		var aggs []AggSpec
		for i, a := range args {
			aggs = append(aggs, AggSpec{Arg: bind(a, p), Name: fmt.Sprintf("s%d", i)})
		}
		agg, err := NewAggregatePlan(p, aggs)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	// Each world keeps either the table's first n−k rows or its last
	// n−k, by a peek all its rows see, so every world keeps n−k rows,
	// but rank r is row r in some worlds and row r+k in others: ranks
	// straddle chunks, the middle rows, kept in every world, arrive
	// while earlier ranks are still open, and world 0's tags follow
	// its kept rows, whichever side world 0 takes.
	k := n / 3
	shifted := func(cmp string) Plan {
		return &SelectPlan{Child: scan, Desc: "first or last n-k",
			Pred: bind(fmt.Sprintf("CASE WHEN Peek() %s 0.5 THEN i < %d ELSE i >= %d END", cmp, n-k, k), scan)}
	}
	// One Extend draws per row: over one row it takes the fresh lane,
	// over more the live streams.
	demand := vgExtendPlan(t, db, scan, "d")
	high := &SelectPlan{Child: demand, Pred: bind("d > @week", demand), Desc: "d > week"}
	always := &SelectPlan{Child: demand, Pred: bind("DemandModel(i, 99) > -1e9", demand), Desc: "draws, keeps all"}
	return []struct {
		name string
		plan Plan
	}{
		{"rank carry", project(shifted("<"), "tag", "i", "vol")},
		{"rank carry, sides swapped", project(shifted(">="), "tag", "i", "vol")},
		{"fresh lane and keys", project(&SelectPlan{Child: demand, Pred: bind("vol > 11", demand), Desc: "vol > 11"}, "tag", "d", "i")},
		{"world-varying rows", project(high, "i", "d")},
		{"sum over world-varying rows", sum(high, "d", "1", "i")},
		{"sum of a draw", sum(scan, "vol * DemandModel(i, 99)", "i")},
		{"two drawers", project(always, "d", "i")},
	}
}

// TestChunkedPlansMatchOracle holds chunked runs to the oracle over the
// grid of chunk sizes, block sizes and worker counts, over tables of
// 0 to 129 rows. A plan whose Extend and WHERE both draw runs in one
// pass; chunks would reorder its draws.
func TestChunkedPlansMatchOracle(t *testing.T) {
	params := map[string]float64{"week": 20}
	for _, n := range chunkTableRows {
		for _, tc := range chunkPlans(t, n) {
			t.Run(fmt.Sprintf("%s/rows=%d", tc.name, n), func(t *testing.T) {
				t.Parallel()
				if err := oracleDiff(tc.plan, params, 300, chunkBlockSizes, columnarWorkers, chunkSizes); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestPlanChunkingCountsDrawers pins the one-drawer rule: the plans
// above run in chunks of the requested size, except the one whose
// Extend and WHERE both draw.
func TestPlanChunkingCountsDrawers(t *testing.T) {
	for _, tc := range chunkPlans(t, 65) {
		want := chunking{rows: 65, size: 3}
		if tc.name == "two drawers" {
			want = chunking{}
		}
		if got := planChunking(tc.plan, 3); got != want {
			t.Errorf("%s: chunking %+v, want %+v", tc.name, got, want)
		}
	}
	if got := planChunking(ValuesPlan{}, 0); got != (chunking{rows: 1, size: rowsPerChunk}) {
		t.Errorf("Values: chunking %+v, want one row in chunks of %d", got, rowsPerChunk)
	}
}

// TestChunkedCardinalityError: when world-varying rows leave worlds
// with different counts, the rank carry counts each world's rows, so a
// chunked run names the same world and counts as the oracle.
func TestChunkedCardinalityError(t *testing.T) {
	params := map[string]float64{"week": 20}
	for _, n := range []int{1, 65, 129} {
		var plan Plan
		for _, tc := range chunkPlans(t, n) {
			if tc.name == "world-varying rows" {
				plan = tc.plan
			}
		}
		for _, chunk := range chunkSizes {
			opts := WorldsOptions{Worlds: 300, MasterSeed: 7, blockWorlds: 64, chunkRows: chunk}
			_, wantErr := refDistribution(plan, params, opts)
			_, gotErr := RunDistribution(plan, params, opts)
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("rows=%d chunk=%d: oracle %v, executor %v; want the same cardinality error", n, chunk, wantErr, gotErr)
			}
			if !strings.Contains(gotErr.Error(), "world-invariant") {
				t.Fatalf("rows=%d chunk=%d: unexpected error %v", n, chunk, gotErr)
			}
		}
	}
}
