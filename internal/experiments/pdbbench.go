package experiments

// The PDB execution micro-benchmark behind BENCH_pdb.json: where
// BENCH_sweep.json tracks the Monte Carlo engine's hot path,
// this grid tracks the query layer — ns, allocations and bytes per
// *world* for representative query shapes on the world-blocked
// columnar executor, so a regression in it is caught by diffing two
// JSON files.

import (
	"fmt"
	"runtime"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/exec"
	"jigsaw/internal/pdb"
	"jigsaw/internal/sqlparse"
)

// pdbBenchQuery is one benchmark workload: a prebuilt plan plus its
// parameter point.
type pdbBenchQuery struct {
	name   string
	plan   pdb.Plan
	params map[string]float64
}

// pdbBenchQueries builds the three workload shapes:
//
//   - demand: the minimal VG-heavy model query (one draw per world) —
//     the fresh-lane bulk-kernel case.
//   - overload: Fig. 1's dependent column list (two draws per world
//     plus a CASE over both) — the live-stream kernel case.
//   - users: the data-dependent aggregate over cfg.Users rows (one
//     draw per row per world into a SUM) — the set-oriented case the
//     wrapper wins Fig. 7 with.
func pdbBenchQueries(cfg Config) ([]pdbBenchQuery, error) {
	db := pdb.NewDB()
	db.Boxes.MustRegister(blackbox.NewDemand())
	db.Boxes.MustRegister(blackbox.NewCapacity())
	db.Boxes.MustRegister(blackbox.UserUsage{})

	userPlan, err := usersSumPlan(db, blackbox.GenerateUsers(cfg.Users, 0xD5))
	if err != nil {
		return nil, err
	}

	buildSQL := func(src string) (pdb.Plan, error) {
		script, err := sqlparse.Parse(src)
		if err != nil {
			return nil, err
		}
		return exec.BuildPDBPlan(script.Selects[0], db)
	}
	demand, err := buildSQL(`SELECT DemandModel(@current_week, @feature_release) AS demand`)
	if err != nil {
		return nil, err
	}
	overload, err := buildSQL(`SELECT DemandModel(@current_week, 99999) AS demand,
	  CapacityModel(@current_week, @purchase1, @purchase2) AS capacity,
	  CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload`)
	if err != nil {
		return nil, err
	}

	mid := float64(cfg.Weeks / 2)
	return []pdbBenchQuery{
		{"demand", demand, map[string]float64{"current_week": mid, "feature_release": 12}},
		{"overload", overload, map[string]float64{"current_week": mid, "purchase1": 8, "purchase2": 24}},
		{"users", userPlan, map[string]float64{"current_week": 40}},
	}, nil
}

// usersSumPlan stores users as db's "users" table and builds
// Scan → Aggregate(SUM(UserUsage(@current_week, join_week, base,
// growth, vol)) AS total): the data-dependent query of Fig. 7's
// UserSelect wrapper and of the users cell. db must have UserUsage
// registered.
func usersSumPlan(db *pdb.DB, users []blackbox.User) (pdb.Plan, error) {
	userTable := pdb.MustNewTable("join_week", "base", "growth", "vol")
	for _, u := range users {
		userTable.MustAppend(pdb.Row{
			pdb.Float(u.JoinWeek), pdb.Float(u.BaseCores),
			pdb.Float(u.GrowthRate), pdb.Float(u.Volatility),
		})
	}
	if err := db.CreateTable("users", userTable); err != nil {
		return nil, err
	}
	scan, err := db.Scan("users")
	if err != nil {
		return nil, err
	}
	usage, err := pdb.Bind(&sqlparse.FuncCall{Name: "UserUsage", Args: []sqlparse.Expr{
		&sqlparse.ParamRef{Name: "current_week"}, &sqlparse.ColRef{Name: "join_week"},
		&sqlparse.ColRef{Name: "base"}, &sqlparse.ColRef{Name: "growth"}, &sqlparse.ColRef{Name: "vol"},
	}}, scan.Schema(), db.Boxes)
	if err != nil {
		return nil, err
	}
	return pdb.NewAggregatePlan(scan, []pdb.AggSpec{{Arg: usage, Name: "total"}})
}

// measurePDBCell benchmarks one grid cell and normalizes per world.
func measurePDBCell(name string, q pdbBenchQuery, opts pdb.WorldsOptions) (SweepBenchResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cellProcs(opts.Workers)))
	// Warm pools so the cell measures steady state, and surface setup
	// errors outside the timed loop.
	if _, err := pdb.RunDistribution(q.plan, q.params, opts); err != nil {
		return SweepBenchResult{}, err
	}
	var runErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pdb.RunDistribution(q.plan, q.params, opts); err != nil {
				runErr = err
				return
			}
		}
	})
	if runErr != nil {
		return SweepBenchResult{}, runErr
	}
	worlds := float64(opts.Worlds)
	return SweepBenchResult{
		Name:           name,
		Index:          "pdb/columnar",
		Workers:        opts.Workers,
		Points:         opts.Worlds,
		NsPerPoint:     float64(res.NsPerOp()) / worlds,
		AllocsPerPoint: float64(res.AllocsPerOp()) / worlds,
		BytesPerPoint:  float64(res.AllocedBytesPerOp()) / worlds,
	}, nil
}

// PDBBench measures the PDB query layer over the query × workers grid
// and returns the report for BENCH_pdb.json. Cell figures are per
// world (the PDB analogue of per point). Cell names keep the
// mode=columnar segment so they match the recorded baseline.
func PDBBench(cfg Config) (*SweepBenchReport, error) {
	cfg = cfg.withDefaults()
	queries, err := pdbBenchQueries(cfg)
	if err != nil {
		return nil, err
	}

	parallelWorkers := cfg.Workers
	if parallelWorkers <= 1 {
		parallelWorkers = benchParallelWorkers
	}
	workerGrid := []int{1, parallelWorkers}
	prevProcs := runtime.GOMAXPROCS(parallelWorkers)
	defer runtime.GOMAXPROCS(prevProcs)

	report := &SweepBenchReport{
		Suite:      "pdb",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Samples:    cfg.Samples,
		Points:     cfg.Samples,
	}
	for _, q := range queries {
		for _, workers := range workerGrid {
			opts := pdb.WorldsOptions{Worlds: cfg.Samples, MasterSeed: cfg.MasterSeed, Workers: workers}
			name := fmt.Sprintf("pdb/query=%s/mode=columnar/workers=%d", q.name, workers)
			cell, err := measurePDBCell(name, q, opts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			report.Results = append(report.Results, cell)
		}
	}
	return report, nil
}
