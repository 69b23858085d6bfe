package experiments

import (
	"fmt"
	"time"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/exec"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/pdb"
	"jigsaw/internal/sqlparse"
)

// Fig7Row is one line of the Fig. 7 table: seconds per parameter
// combination under the two prototypes.
type Fig7Row struct {
	Model string
	// WrapperSecPerPC is the PDB-stack prototype (the paper's
	// "Online" C# + MS SQL wrapper).
	WrapperSecPerPC float64
	// CoreSecPerPC is the lightweight engine (the paper's "Offline"
	// Ruby core).
	CoreSecPerPC float64
}

// fig7Case describes one model's two execution paths over the points
// of a space: the wrapper takes a point by name, the core its value
// row.
type fig7Case struct {
	name    string
	space   *param.Space
	wrapper func(p param.Point)
	core    func(vals []float64)
}

// Figure7 reproduces the §6.1 two-prototype comparison. For the
// model-only queries the wrapper pays per-invocation parse/plan and
// per-world interpretation costs; for the data-dependent UserSelect
// it wins by running the columnar Scan → SUM tree, which draws each
// row's VG column across a block of worlds at once (DESIGN.md,
// "Columnar PDB execution").
func Figure7(cfg Config) ([]Fig7Row, *Table, error) {
	cfg = cfg.withDefaults()

	cases, err := fig7Cases(cfg)
	if err != nil {
		return nil, nil, err
	}
	var rows []Fig7Row
	for _, c := range cases {
		n := c.space.Size()
		points, valueRows := make([]param.Point, n), make([][]float64, n)
		for i := range points {
			points[i], valueRows[i] = c.space.Point(i), c.space.Values(i, nil)
		}
		wrapper := timeIt(cfg.Trials, func() {
			for _, p := range points {
				c.wrapper(p)
			}
		})
		core := timeIt(cfg.Trials, func() {
			for _, vals := range valueRows {
				c.core(vals)
			}
		})
		rows = append(rows, Fig7Row{
			Model:           c.name,
			WrapperSecPerPC: (wrapper / time.Duration(n)).Seconds(),
			CoreSecPerPC:    (core / time.Duration(n)).Seconds(),
		})
	}

	table := &Table{
		Title:   "Figure 7: wrapper vs core engine (s per parameter combination)",
		Columns: []string{"Model", "Wrapper s/pc", "Core s/pc", "Wrapper/Core"},
		Notes: []string{
			"wrapper = full SQL parse + plan + per-world PDB interpretation (paper: C# + MS SQL)",
			"core = direct engine evaluation (paper: Ruby prototype)",
			"UserSelect wrapper runs the columnar Scan → SUM tree, one VG column per row across a world block — the data-management win",
		},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Model,
			fmt.Sprintf("%.6f", r.WrapperSecPerPC),
			fmt.Sprintf("%.6f", r.CoreSecPerPC),
			fmtRatio(r.WrapperSecPerPC / r.CoreSecPerPC),
		})
	}
	return rows, table, nil
}

// fig7Cases builds the four benchmark models with both execution
// paths. Their spaces are small slices of the full spaces: Fig. 7
// reports per-point costs, which are flat across the space.
func fig7Cases(cfg Config) ([]fig7Case, error) {
	reg := blackbox.NewRegistry()
	reg.MustRegister(blackbox.NewDemand())
	reg.MustRegister(blackbox.NewCapacity())
	reg.MustRegister(blackbox.NewOverload())
	users := blackbox.NewUserSelection(cfg.Users, 0xD5)
	reg.MustRegister(users)
	reg.MustRegister(blackbox.UserUsage{})

	worlds := pdb.WorldsOptions{Worlds: cfg.Samples, MasterSeed: cfg.MasterSeed}
	engineOpts := mc.Options{
		Samples: cfg.Samples, FingerprintLen: cfg.FingerprintLen,
		MasterSeed: cfg.MasterSeed, Reuse: false, Workers: cfg.Workers,
	}

	// Reusable wrapper runner: re-parse and re-plan per invocation, as
	// the paper's wrapper re-invoked the SQL engine per subquery.
	wrapperRun := func(src string, db *pdb.DB, p param.Point) {
		script, err := sqlparse.Parse(src)
		if err != nil {
			panic(err)
		}
		plan, err := exec.BuildPDBPlan(script.Selects[0], db)
		if err != nil {
			panic(err)
		}
		params := map[string]float64(p)
		if _, err := pdb.RunDistribution(plan, params, worlds); err != nil {
			panic(err)
		}
	}
	db := pdb.NewDB()
	db.Boxes = reg

	// Core runners: one naive engine per model (no reuse — Fig. 7
	// compares substrates, not fingerprinting).
	coreRun := func(box blackbox.Box, space *param.Space, names ...string) func([]float64) {
		eng := mc.MustNew(engineOpts)
		ev := mc.MustBindBox(box, space, names...)
		return func(vals []float64) { eng.EvaluatePoint(ev, vals) }
	}

	set := func(name string, values ...float64) param.Decl {
		d, err := param.Set(name, values...)
		if err != nil {
			panic(err)
		}
		return d
	}
	var eighths []float64
	for i := 0; i < 8; i++ {
		eighths = append(eighths, float64(i*cfg.Weeks/8))
	}
	demandSpace := param.MustSpace(set("current_week", eighths...), set("feature_release", 12))
	capacitySpace := param.MustSpace(set("current_week", eighths...), set("purchase1", 8), set("purchase2", 24))
	userSpace := param.MustSpace(set("current_week", 10, 20, 30))

	// UserSelect wrapper: the users table under one prebuilt
	// Scan → SUM(UserUsage(...)) tree.
	userPlan, err := usersSumPlan(db, users.Users)
	if err != nil {
		return nil, err
	}

	return []fig7Case{
		{
			name:  "Demand",
			space: demandSpace,
			wrapper: func(p param.Point) {
				wrapperRun(`SELECT DemandModel(@current_week, @feature_release) AS demand`, db, p)
			},
			core: coreRun(blackbox.NewDemand(), demandSpace, "current_week", "feature_release"),
		},
		{
			name:  "Capacity",
			space: capacitySpace,
			wrapper: func(p param.Point) {
				wrapperRun(`SELECT CapacityModel(@current_week, @purchase1, @purchase2) AS capacity`, db, p)
			},
			core: coreRun(blackbox.NewCapacity(), capacitySpace, "current_week", "purchase1", "purchase2"),
		},
		{
			name:  "Overload",
			space: capacitySpace,
			wrapper: func(p param.Point) {
				wrapperRun(`SELECT DemandModel(@current_week, 99999) AS demand,
				  CapacityModel(@current_week, @purchase1, @purchase2) AS capacity,
				  CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload`, db, p)
			},
			core: coreRun(blackbox.NewOverload(), capacitySpace, "current_week", "purchase1", "purchase2"),
		},
		{
			name:  "UserSelect",
			space: userSpace,
			wrapper: func(p param.Point) {
				if _, err := pdb.RunDistribution(userPlan, map[string]float64(p), worlds); err != nil {
					panic(err)
				}
			},
			core: coreRun(users, userSpace, "current_week"),
		},
	}, nil
}
