package exec

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/core"
	"jigsaw/internal/markov"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
	"jigsaw/internal/sqlparse"
	"jigsaw/internal/stats"
)

// figure5Source is the paper's Fig. 5 Markov scenario; ReleaseWeekModel
// decides the release week from observed demand.
const figure5Source = `
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @release_week AS CHAIN release_week
    FROM @current_week : @current_week - 1
    INITIAL VALUE 52;
SELECT ReleaseWeekModel(@current_week, demand, @release_week) AS release_week, demand
FROM (SELECT DemandModel(@current_week, @release_week) AS demand)
INTO results
`

// releaseWeekModel pulls the release in once demand crosses a
// threshold: if already pulled (release <= week horizon) keep it, else
// if demand > 40, release four weeks out.
func releaseWeekModel() blackbox.Box {
	return blackbox.Func{FuncName: "ReleaseWeekModel", NArgs: 3,
		Fn: func(args []float64, r *rng.Rand) float64 {
			week, demand, release := args[0], args[1], args[2]
			if release < 52 {
				return release // already scheduled
			}
			if demand > 40 {
				return week + 4
			}
			return 52 // initial sentinel: not scheduled yet
		}}
}

func fig5Registry() *blackbox.Registry {
	reg := stdRegistry()
	reg.MustRegister(releaseWeekModel())
	return reg
}

func compileFig5(t *testing.T) *Scenario {
	t.Helper()
	script, err := sqlparse.Parse(figure5Source)
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileScenario(script, fig5Registry())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScenarioChainBasics(t *testing.T) {
	s := compileFig5(t)
	if len(s.Space.Chains()) != 1 {
		t.Fatalf("chains = %d", len(s.Space.Chains()))
	}
	c, err := NewScenarioChain(s, "demand", param.Point{})
	if err != nil {
		t.Fatal(err)
	}
	init := c.Initial()
	if init[0] != 52 || init[1] != 0 {
		t.Fatalf("initial = %v", init)
	}
	next := c.Step(10, init, rng.New(3))
	if len(next) != 2 {
		t.Fatalf("state = %v", next)
	}
	if c.Output(next) != next[1] {
		t.Fatal("output component wrong")
	}
	mapped := c.ApplyMapping(core.Shift(5), next)
	if mapped[0] != next[0] || mapped[1] != next[1]+5 {
		t.Fatal("mapping must touch only the output component")
	}
}

func TestScenarioChainErrors(t *testing.T) {
	s := compileFig5(t)
	if _, err := NewScenarioChain(s, "nope", param.Point{}); err == nil {
		t.Fatal("missing output column accepted")
	}
	plain := compileFig1(t)
	if _, err := NewScenarioChain(plain, "demand", param.Point{}); err == nil {
		t.Fatal("chain-less scenario accepted")
	}
}

func TestColumnEvalRejectsChainScenario(t *testing.T) {
	s := compileFig5(t)
	if _, err := s.ColumnEval("demand"); err == nil || !strings.Contains(err.Error(), "@release_week") {
		t.Fatalf("ColumnEval on a CHAIN row: err = %v", err)
	}
	g := &sqlparse.GraphStmt{Over: "current_week", Series: []sqlparse.GraphSeries{{Column: "demand"}}}
	if _, err := RunGraph(s, g, param.Point{}, mc.Options{Samples: 20, Workers: 1}); err == nil {
		t.Fatal("GRAPH over a CHAIN row accepted")
	}
}

func TestScenarioChainRequiresFixedParams(t *testing.T) {
	script, err := sqlparse.Parse(`
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @bump AS SET (0, 10);
DECLARE PARAMETER @release_week AS CHAIN release_week
    FROM @current_week : @current_week - 1
    INITIAL VALUE 52;
SELECT ReleaseWeekModel(@current_week, demand, @release_week) AS release_week, demand
FROM (SELECT DemandModel(@current_week, @release_week) + @bump AS demand)
INTO results`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileScenario(script, fig5Registry())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScenarioChain(s, "demand", param.Point{}); err == nil || !strings.Contains(err.Error(), "@bump") {
		t.Fatalf("chain without @bump: err = %v", err)
	}
	c, err := NewScenarioChain(s, "demand", param.Point{"bump": 10})
	if err != nil {
		t.Fatal(err)
	}
	// The fixed binding reaches the row: the same world with @bump
	// bound to 0 reads exactly 10 less.
	c0, err := NewScenarioChain(s, "demand", param.Point{"bump": 0})
	if err != nil {
		t.Fatal(err)
	}
	got := c.Step(5, c.Initial(), rng.New(4))
	base := c0.Step(5, c0.Initial(), rng.New(4))
	if got[1] != base[1]+10 {
		t.Fatalf("demand with @bump=10 is %g, with @bump=0 %g", got[1], base[1])
	}
	// A fixed value need not lie in the declared domain, SET (0, 10).
	c25, err := NewScenarioChain(s, "demand", param.Point{"bump": 25})
	if err != nil {
		t.Fatal(err)
	}
	if got := c25.Step(5, c25.Initial(), rng.New(4)); got[1] != base[1]+25 {
		t.Fatalf("demand with @bump=25 is %g, with @bump=0 %g", got[1], base[1])
	}
}

// TestScenarioChainConcurrentSteps: Steps on one chain from several
// goroutines each take their own pooled rows, so every goroutine's
// states equal a sequential run's with the same seed.
func TestScenarioChainConcurrentSteps(t *testing.T) {
	c, err := NewScenarioChain(compileFig5(t), "demand", param.Point{})
	if err != nil {
		t.Fatal(err)
	}
	walk := func(seed uint64) []markov.State {
		r, st := rng.New(seed), c.Initial()
		var out []markov.State
		for step := 1; step <= 52; step++ {
			st = c.Step(step, st, r)
			out = append(out, st)
		}
		return out
	}
	const n = 4
	var got [n][]markov.State
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = walk(uint64(g + 1))
		}()
	}
	wg.Wait()
	for g := range n {
		if want := walk(uint64(g + 1)); !reflect.DeepEqual(got[g], want) {
			t.Fatalf("seed %d: concurrent states differ from a sequential walk", g+1)
		}
	}
}

// TestScenarioChainStepAllocs: a step binds and fills a pooled row, so
// it allocates only the State it returns.
func TestScenarioChainStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector (sync.Pool drops puts)")
	}
	c, err := NewScenarioChain(compileFig5(t), "demand", param.Point{})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	st := c.Step(1, c.Initial(), r) // warm the pool
	if n := testing.AllocsPerRun(100, func() { st = c.Step(7, st, r) }); n > 1 {
		t.Errorf("Step allocates %.1f per call, want at most its State", n)
	}
}

func TestFig5ChainNaiveVsJump(t *testing.T) {
	s := compileFig5(t)
	chain, err := NewScenarioChain(s, "demand", param.Point{})
	if err != nil {
		t.Fatal(err)
	}
	opts := markov.JumpOptions{Instances: 200, FingerprintLen: 10, MasterSeed: 7}
	const target = 52
	naive, nst, err := markov.NaiveEvaluate(chain, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	jump, jst, err := markov.Jump(chain, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	nm := meanOf(markov.Outputs(chain, naive))
	jm := meanOf(markov.Outputs(chain, jump))
	if rel := math.Abs(jm-nm) / math.Abs(nm); rel > 0.06 {
		t.Fatalf("jump mean %g vs naive %g (rel %g)", jm, nm, rel)
	}
	if jst.TotalStepInvocations() >= nst.TotalStepInvocations() {
		t.Fatalf("jump (%d invocations) no cheaper than naive (%d)",
			jst.TotalStepInvocations(), nst.TotalStepInvocations())
	}
	// Releases must actually trigger in the naive run for the test to
	// be meaningful.
	triggered := 0
	for _, st := range naive {
		if st[0] < 52 {
			triggered++
		}
	}
	if triggered < 150 {
		t.Fatalf("only %d/200 instances scheduled a release", triggered)
	}
}

// meanOf is the sample mean of xs.
func meanOf(xs []float64) float64 {
	a := stats.NewAccumulator()
	a.AddAll(xs)
	return a.Mean()
}
