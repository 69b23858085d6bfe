package jigsaw_test

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"jigsaw"
)

// Example is the package's quick start: bind a model to a parameter
// space, then sweep every point of it with fingerprint reuse.
func Example() {
	demand := jigsaw.BoxFunc{
		FuncName: "Demand", NArgs: 1,
		Fn: func(args []float64, r *jigsaw.Rand) float64 {
			return r.Normal(args[0], 0.1*args[0]+1)
		},
	}
	week, _ := jigsaw.RangeParam("week", 0, 52, 1)
	space, _ := jigsaw.NewSpace(week)
	eval, _ := jigsaw.BindBox(demand, space, "week")
	eng, _ := jigsaw.NewEngine(jigsaw.EngineOptions{Samples: 1000, Reuse: true})
	results, stats, _ := eng.Sweep(eval)
	fmt.Printf("%d points, %d simulated, %d reused\n", stats.Points, stats.FullSimulations, stats.Reused)
	fmt.Printf("E[demand @ week 52] = %.0f\n", results[52].Summary.Mean)
	// Output:
	// 53 points, 1 simulated, 52 reused
	// E[demand @ week 52] = 52
}

// TestPublicAPIQuickstart is the quick start, end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	demand := jigsaw.BoxFunc{
		FuncName: "Demand", NArgs: 1,
		Fn: func(args []float64, r *jigsaw.Rand) float64 {
			return r.Normal(args[0], 0.1*args[0]+1)
		},
	}
	eng, err := jigsaw.NewEngine(jigsaw.EngineOptions{Samples: 300, Reuse: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	week, err := jigsaw.RangeParam("week", 1, 52, 1)
	if err != nil {
		t.Fatal(err)
	}
	space, err := jigsaw.NewSpace(week)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := jigsaw.BindBox(demand, space, "week")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jigsaw.BindBox(demand, space, "weeks"); err == nil {
		t.Fatal("BindBox accepted a name the space does not declare")
	}
	results, st, err := eng.Sweep(eval)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 52 {
		t.Fatalf("results = %d", len(results))
	}
	if st.FullSimulations != 1 || st.Reused != 51 {
		t.Fatalf("reuse stats = %+v", st)
	}
	if math.Abs(results[51].Summary.Mean-52) > 1 {
		t.Fatalf("week 52 mean = %g", results[51].Summary.Mean)
	}
}

// TestPublicAPIConcurrentSweep is the facade-level determinism
// contract: a sweep over all cores returns bit-identical results and
// statistics to a one-worker sweep.
func TestPublicAPIConcurrentSweep(t *testing.T) {
	week, _ := jigsaw.RangeParam("week", 1, 40, 1)
	release, _ := jigsaw.SetParam("release", 10, 99)
	space, err := jigsaw.NewSpace(week, release)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := jigsaw.BindBox(jigsaw.NewDemandModel(), space, "week", "release")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) ([]jigsaw.PointResult, jigsaw.SweepStats) {
		eng, err := jigsaw.NewEngine(jigsaw.EngineOptions{Samples: 300, Reuse: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		results, st, err := eng.Sweep(eval)
		if err != nil {
			t.Fatal(err)
		}
		return results, st
	}
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4 // spread the points even on small machines
	}
	seqRes, seqStats := run(1)
	parRes, parStats := run(workers)
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Fatal("parallel sweep results differ from one-worker sweep")
	}
	if !reflect.DeepEqual(seqStats, parStats) {
		t.Fatalf("parallel sweep stats differ: %+v vs %+v", seqStats, parStats)
	}
}

// TestPublicAPIScenario drives the Fig. 1 batch pipeline through the
// facade only.
func TestPublicAPIScenario(t *testing.T) {
	script, err := jigsaw.Parse(`
DECLARE PARAMETER @current_week AS RANGE 0 TO 24 STEP BY 4;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 24 STEP BY 8;
SELECT DemandModel(@current_week, 99) AS demand,
       CapacityModel(@current_week, @purchase1, 0) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
OPTIMIZE SELECT @purchase1 FROM results
WHERE MAX(EXPECT overload) < 0.5
GROUP BY purchase1
FOR MAX @purchase1`)
	if err != nil {
		t.Fatal(err)
	}
	reg := jigsaw.NewRegistry()
	if err := reg.Register(jigsaw.NewDemandModel()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(jigsaw.NewCapacityModel()); err != nil {
		t.Fatal(err)
	}
	scenario, err := jigsaw.Compile(script, reg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := jigsaw.Optimize(scenario, script.Optimize,
		jigsaw.EngineOptions{Samples: 100, Reuse: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chosen == nil {
		t.Fatal("no feasible purchase date")
	}
	// Demand stays far below capacity here, so the latest purchase
	// wins.
	if got := res.Chosen.MustGet("purchase1"); got != 24 {
		t.Fatalf("chosen = %g, want 24", got)
	}
}

// TestPublicAPIMarkov exercises the chain API.
func TestPublicAPIMarkov(t *testing.T) {
	chain := jigsaw.NewEventChain(0.02, 7)
	opts := jigsaw.JumpOptions{Instances: 100, FingerprintLen: 10}
	jump, jst, err := jigsaw.MarkovJump(chain, 100, opts)
	if err != nil {
		t.Fatal(err)
	}
	naive, nst, err := jigsaw.MarkovNaive(chain, 100, opts)
	if err != nil {
		t.Fatal(err)
	}
	jo := jigsaw.ChainOutputs(chain, jump)
	no := jigsaw.ChainOutputs(chain, naive)
	for i := range jo {
		if jo[i] != no[i] {
			t.Fatalf("instance %d: %g != %g", i, jo[i], no[i])
		}
	}
	if jst.TotalStepInvocations() >= nst.TotalStepInvocations() {
		t.Fatal("jump no cheaper than naive")
	}
}

// TestPublicAPIPDB exercises the database path.
func TestPublicAPIPDB(t *testing.T) {
	db := jigsaw.NewDB()
	if err := db.Boxes.Register(jigsaw.NewDemandModel()); err != nil {
		t.Fatal(err)
	}
	script, err := jigsaw.Parse(`SELECT DemandModel(@w, 99) AS demand`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := jigsaw.BuildPDBPlan(script.Selects[0], db)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := jigsaw.RunDistribution(plan, map[string]float64{"w": 10},
		jigsaw.WorldsOptions{Worlds: 2000})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := dist.CellByName(0, "demand")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Mean-10) > 0.3 {
		t.Fatalf("E[demand@10] = %g", sum.Mean)
	}
}

// TestPublicAPISession exercises the interactive path.
func TestPublicAPISession(t *testing.T) {
	week, _ := jigsaw.RangeParam("week", 1, 20, 1)
	release, _ := jigsaw.SetParam("release", 99)
	space, err := jigsaw.NewSpace(week, release)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := jigsaw.BindBox(jigsaw.NewDemandModel(), space, "week", "release")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := jigsaw.NewSession(eval, jigsaw.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	focus := jigsaw.Point{"week": 10, "release": 99}
	if err := sess.SetFocus(focus); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, _, err := sess.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	sum, ok := sess.Estimate(focus)
	if !ok || sum.N < 10 {
		t.Fatalf("estimate = %+v, ok=%v", sum, ok)
	}
	if math.Abs(sum.Mean-10) > 2.5 {
		t.Fatalf("estimate mean = %g, want ~10", sum.Mean)
	}
}

// TestEvaluatorCarriesItsSpace is a model bound over a space that
// declares its parameters in the other order than its arguments: a
// session and a sweep both read the points of the evaluator's own
// space, so E[demand @ week 50, release 12] is the name-keyed 57.6,
// not the 12 of the swapped arguments.
func TestEvaluatorCarriesItsSpace(t *testing.T) {
	release, _ := jigsaw.SetParam("release", 12)
	week, _ := jigsaw.RangeParam("week", 40, 60, 1)
	space, err := jigsaw.NewSpace(release, week)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := jigsaw.BindBox(jigsaw.NewDemandModel(), space, "week", "release")
	if err != nil {
		t.Fatal(err)
	}
	const want = 50 + 0.2*(50-12) // Algorithm 1's mean at week 50
	sess, err := jigsaw.NewSession(eval, jigsaw.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	focus := jigsaw.Point{"week": 50, "release": 12}
	if err := sess.SetFocus(focus); err != nil {
		t.Fatal(err)
	}
	for range 30 {
		if _, _, err := sess.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if est, ok := sess.Estimate(focus); !ok || math.Abs(est.Mean-want) > 3 {
		t.Fatalf("session E[demand @ week 50] = %g (ok %v), want ~%g", est.Mean, ok, want)
	}
	eng, err := jigsaw.NewEngine(jigsaw.EngineOptions{Samples: 1000, Reuse: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := eng.Sweep(eval)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := space.Index(focus)
	if err != nil {
		t.Fatal(err)
	}
	if got := results[idx].Summary.Mean; math.Abs(got-want) > 1 {
		t.Fatalf("sweep E[demand @ week 50] = %g, want ~%g", got, want)
	}
}

// TestStockRegistryRejectsNegativeUsers checks that a negative user
// count (cmd/jigsaw -users -5) is an error, not a panic.
func TestStockRegistryRejectsNegativeUsers(t *testing.T) {
	if reg, err := jigsaw.NewStockRegistry(-5); err == nil {
		t.Fatalf("NewStockRegistry(-5) = %v, want an error", reg)
	}
}

// TestMarkovFacadeRejectsBadOptions checks that invalid JumpOptions
// come back from MarkovJump and MarkovNaive as errors, not panics.
func TestMarkovFacadeRejectsBadOptions(t *testing.T) {
	for _, opts := range []jigsaw.JumpOptions{
		{Instances: -1},
		{Instances: -5, FingerprintLen: -10},
		{FingerprintLen: -2},
	} {
		for name, run := range map[string]func(jigsaw.Chain, int, jigsaw.JumpOptions) ([]jigsaw.ChainState, jigsaw.JumpStats, error){
			"MarkovJump": jigsaw.MarkovJump, "MarkovNaive": jigsaw.MarkovNaive,
		} {
			func() {
				defer func() {
					if v := recover(); v != nil {
						t.Errorf("%s(%+v) panicked: %v", name, opts, v)
					}
				}()
				if _, _, err := run(jigsaw.NewBranchChain(0.3), 64, opts); err == nil {
					t.Errorf("%s(%+v) accepted invalid options", name, opts)
				}
			}()
		}
	}
}

// TestPublicAPIFingerprints exercises the §3 primitives directly.
func TestPublicAPIFingerprints(t *testing.T) {
	fpA := jigsaw.ComputeFingerprint(func(seed uint64) float64 {
		return jigsaw.NewRand(seed).Normal(0, 1)
	}, 42, 10)
	fpB := jigsaw.ComputeFingerprint(func(seed uint64) float64 {
		return jigsaw.NewRand(seed).Normal(5, 3)
	}, 42, 10)
	store := jigsaw.NewBasisStore(jigsaw.LinearMappingClass{}, jigsaw.NewNormalizationIndex())
	if _, err := store.Add(fpA, "payload"); err != nil {
		t.Fatal(err)
	}
	basis, mapping, ok, _ := store.Match(fpB, nil, nil)
	if !ok {
		t.Fatal("affine fingerprints did not match")
	}
	if basis.Payload != "payload" {
		t.Fatalf("matched payload %v", basis.Payload)
	}
	alpha, beta := mapping.Alpha, mapping.Beta
	if math.Abs(alpha-3) > 1e-6 || math.Abs(beta-5) > 1e-6 {
		t.Fatalf("mapping = %g·x+%g, want 3x+5", alpha, beta)
	}
}

// TestStockRegistryRunsTheCLIScripts compiles both perfbench scripts
// against the registry cmd/jigsaw and cmd/fuzzy-prophet share, and
// takes a ColumnEval of each column, as fuzzy-prophet does.
func TestStockRegistryRunsTheCLIScripts(t *testing.T) {
	reg, err := jigsaw.NewStockRegistry(200)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"perfbench/scripts/fig1_optimize.jsq", "perfbench/scripts/graph_users.jsq"} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		script, err := jigsaw.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		s, err := jigsaw.Compile(script, reg)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, col := range s.Columns {
			if _, err := s.ColumnEval(col); err != nil {
				t.Errorf("%s: column %s: %v", path, col, err)
			}
		}
	}
}
