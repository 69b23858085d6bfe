package experiments

import (
	"fmt"
	"math"
	"time"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/core"
	"jigsaw/internal/markov"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
)

// Fig8Row is one bar pair of Fig. 8: total computation time with and
// without fingerprinting, and the work behind it.
type Fig8Row struct {
	Model string
	// FullSec is the naive generate-everything baseline.
	FullSec float64
	// JigsawSec is the fingerprint-reuse run.
	JigsawSec float64
	// FullWork and JigsawWork count each run's work, deterministic
	// for a given Config: model draws for a parameter sweep, chain
	// Step calls for MarkovStep.
	FullWork, JigsawWork int
	// Bases is the number of basis distributions Jigsaw accumulated.
	Bases int
	// Points is the number of parameter points (or chain steps for
	// MarkovStep).
	Points int
	// Err is the reuse run's answer error against the full run, point
	// by point; MarkovStep's is not compared (Fig. 12 reports its
	// bias).
	Err AnswerError
}

// Speedup returns FullSec/JigsawSec.
func (r Fig8Row) Speedup() float64 {
	if r.JigsawSec == 0 {
		return math.Inf(1)
	}
	return r.FullSec / r.JigsawSec
}

// WorkRatio returns FullWork/JigsawWork: the speedup reuse buys in
// work, free of timing noise.
func (r Fig8Row) WorkRatio() float64 {
	if r.JigsawWork == 0 {
		return math.Inf(1)
	}
	return float64(r.FullWork) / float64(r.JigsawWork)
}

// usageBox is the Fig. 8 "Usage" workload: UserSelection with a
// shared cohort growth curve, so weekly totals are scale images of one
// another and the model admits heavy reuse (the paper's Usage bar
// drops to 0.06 min). Per-user volatility keeps the distribution
// non-trivial.
type usageBox struct {
	users  []blackbox.User
	growth float64
}

func newUsageBox(n int, seed uint64) *usageBox {
	return &usageBox{users: blackbox.GenerateUsers(n, seed), growth: 1.01}
}

// Name implements blackbox.Box.
func (*usageBox) Name() string { return "Usage" }

// Arity implements blackbox.Box.
func (*usageBox) Arity() int { return 1 }

// Eval implements blackbox.Box: total usage with shared growth; every
// user is active from week 0 so the week enters only as the common
// factor growth^week.
func (u *usageBox) Eval(args []float64, r *rng.Rand) float64 {
	week := args[0]
	g := math.Pow(u.growth, week)
	total := 0.0
	for i := range u.users {
		total += u.users[i].BaseCores * g * r.LogNormal(0, u.users[i].Volatility)
	}
	return total
}

// Figure8 reproduces the §6.2 baseline-performance comparison: each
// workload evaluated over its full parameter space with fingerprinting
// on and off.
func Figure8(cfg Config) ([]Fig8Row, *Table, error) {
	cfg = cfg.withDefaults()

	// run is one run of a workload: its points, bases and work, and
	// a parameter sweep's per-point results.
	type run struct {
		points, bases, work int
		results             []mc.PointResult
	}
	type workload struct {
		name string
		run  func(reuse bool) run
	}
	engineOpts := func(reuse bool) mc.Options {
		return mc.Options{
			Samples: cfg.Samples, FingerprintLen: cfg.FingerprintLen,
			MasterSeed: cfg.MasterSeed, Reuse: reuse, Workers: cfg.Workers,
			// StrictConstants reproduces Algorithm 2 literally:
			// constant fingerprints never match, which is what caps
			// Overload's gain at ~2× in the paper (its boolean output
			// floods the space with constant fingerprints that a
			// strict matcher cannot reuse).
			Class: core.LinearClass{StrictConstants: true},
		}
	}
	weekDecl := func() param.Decl {
		d, err := param.Range("current_week", 0, float64(cfg.Weeks), 1)
		if err != nil {
			panic(err)
		}
		return d
	}
	purchaseDecl := func(name string) param.Decl {
		d, err := param.Range(name, 0, float64(cfg.Weeks), float64(cfg.PurchaseStep))
		if err != nil {
			panic(err)
		}
		return d
	}

	// A sweep draws every point's m fingerprint rounds and the
	// remaining n−m for each point it simulates; without reuse that is
	// n per point.
	sweep := func(box blackbox.Box, space *param.Space, names ...string) func(bool) run {
		return func(reuse bool) run {
			eng := mc.MustNew(engineOpts(reuse))
			ev := mc.MustBindBox(box, space, names...)
			res, st, err := eng.Sweep(ev)
			if err != nil {
				panic(err)
			}
			o := eng.Options()
			draws := st.Points*o.FingerprintLen + st.FullSimulations*(o.Samples-o.FingerprintLen)
			return run{st.Points, st.Store.Bases, draws, res}
		}
	}

	usage := newUsageBox(cfg.Users/4, 0xD5) // quarter dataset: Usage sweeps many points
	usageSpace := param.MustSpace(weekDecl())
	capacitySpace := param.MustSpace(weekDecl(), purchaseDecl("purchase1"), purchaseDecl("purchase2"))

	markovSteps := cfg.MarkovSteps * 4 // Fig. 8 evaluates MarkovStep over a long chain
	markovRun := func(reuse bool) run {
		chain := markov.NewDemandReleaseChain()
		opts := markov.JumpOptions{
			Instances:      cfg.MarkovInstances,
			FingerprintLen: cfg.FingerprintLen,
			MasterSeed:     cfg.MasterSeed,
		}
		if reuse {
			_, st, err := markov.Jump(chain, markovSteps, opts)
			if err != nil {
				panic(err)
			}
			return run{markovSteps, st.Regions, st.TotalStepInvocations(), nil}
		}
		_, st, err := markov.NaiveEvaluate(chain, markovSteps, opts)
		if err != nil {
			panic(err)
		}
		return run{markovSteps, 0, st.TotalStepInvocations(), nil}
	}

	workloads := []workload{
		{"Usage", sweep(usage, usageSpace, "current_week")},
		{"Capacity", sweep(blackbox.NewCapacity(), capacitySpace, "current_week", "purchase1", "purchase2")},
		{"Overload", sweep(blackbox.NewOverload(), capacitySpace, "current_week", "purchase1", "purchase2")},
		{"MarkovStep", markovRun},
	}

	var rows []Fig8Row
	for _, w := range workloads {
		var full, jig run
		fullT := timeIt(cfg.Trials, func() { full = w.run(false) })
		jigT := timeIt(cfg.Trials, func() { jig = w.run(true) })
		rows = append(rows, Fig8Row{
			Model:      w.name,
			FullSec:    fullT.Seconds(),
			JigsawSec:  jigT.Seconds(),
			FullWork:   full.work,
			JigsawWork: jig.work,
			Bases:      jig.bases,
			Points:     jig.points,
			Err:        answerError(jig.results, full.results),
		})
	}

	table := &Table{
		Title:   "Figure 8: Jigsaw vs fully exploring the parameter space",
		Columns: []string{"Model", "Full s", "Jigsaw s", "Speedup", "Off", "Worst tol", "Worst SE", "Work ratio", "Bases", "Points"},
		Notes: []string{
			"paper reports minutes on 2008 hardware; compare speedup shape, not absolutes",
			"off = points whose Jigsaw mean misses the full run's by more than core.DefaultTolerance; " +
				"worst tol = largest miss in tolerance units (perfbench's answer_err), worst SE = in standard errors " +
				"(MarkovStep: see Fig. 12)",
			"work ratio = full / Jigsaw model draws (MarkovStep: chain Step calls), free of timing noise",
			"Overload's boolean output limits reuse (paper: ~2x); MarkovStep bases column = estimator regions",
		},
	}
	for _, r := range rows {
		cells := []string{
			r.Model, fmtSeconds(time.Duration(r.FullSec * float64(time.Second))),
			fmtSeconds(time.Duration(r.JigsawSec * float64(time.Second))),
			fmtRatio(r.Speedup()),
		}
		cells = append(cells, r.Err.cells()...)
		table.Rows = append(table.Rows, append(cells, fmtRatio(r.WorkRatio()), fmt.Sprint(r.Bases), fmt.Sprint(r.Points)))
	}
	return rows, table, nil
}
