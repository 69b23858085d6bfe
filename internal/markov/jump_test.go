package markov

import (
	"math"
	"strings"
	"testing"

	"jigsaw/internal/core"
	"jigsaw/internal/rng"
	"jigsaw/internal/stats"
)

func TestNaiveEvaluateBranchCounts(t *testing.T) {
	// With branching=1 every instance increments every step.
	c := NewBranchChain(1)
	states, st, err := NaiveEvaluate(c, 16, JumpOptions{Instances: 8, MasterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range states {
		if s[0] != 16 {
			t.Fatalf("instance %d state = %g, want 16", i, s[0])
		}
	}
	if st.FullStepEvals != 8*16 {
		t.Fatalf("step evals = %d", st.FullStepEvals)
	}
}

func TestNaiveEvaluateNegativeTarget(t *testing.T) {
	if _, _, err := NaiveEvaluate(NewBranchChain(0), -1, JumpOptions{}); err == nil {
		t.Fatal("negative target accepted")
	}
	if _, _, err := Jump(NewBranchChain(0), -1, JumpOptions{}); err == nil {
		t.Fatal("negative target accepted by Jump")
	}
}

func TestJumpRejectsBadFingerprintLen(t *testing.T) {
	_, _, err := Jump(NewBranchChain(0), 5, JumpOptions{Instances: 4, FingerprintLen: 8})
	if err == nil {
		t.Fatal("m > n accepted")
	}
}

// badJumpOptions are option values no default repairs, each with the
// field its error must name. Before JumpOptions was validated the
// negative counts panicked (makeslice, or a slice bound).
var badJumpOptions = []struct {
	name string
	opts JumpOptions
	want string
}{
	{"negative instances", JumpOptions{Instances: -1}, "Instances"},
	{"negative instances and fingerprint", JumpOptions{Instances: -5, FingerprintLen: -10}, "Instances"},
	{"negative fingerprint length", JumpOptions{FingerprintLen: -2}, "FingerprintLen"},
}

func TestJumpOptionsDefaults(t *testing.T) {
	o, err := JumpOptions{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.Instances != 1000 || o.FingerprintLen != 10 {
		t.Fatalf("defaults = %+v", o)
	}
	set := JumpOptions{Instances: 3, FingerprintLen: 2, MasterSeed: 9}
	if o, err := set.withDefaults(); err != nil || o != set {
		t.Fatalf("withDefaults(%+v) = %+v, %v; want it unchanged", set, o, err)
	}
}

func TestJumpOptionsRejected(t *testing.T) {
	for _, tc := range badJumpOptions {
		for name, run := range map[string]func(Chain, int, JumpOptions) ([]State, JumpStats, error){
			"Jump": Jump, "NaiveEvaluate": NaiveEvaluate,
		} {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				defer func() {
					if v := recover(); v != nil {
						t.Fatalf("panicked: %v", v)
					}
				}()
				_, _, err := run(NewBranchChain(0.3), 64, tc.opts)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want an error naming %s", err, tc.want)
				}
			})
		}
	}
}

func TestJumpExactForStaticChain(t *testing.T) {
	// branching = 0: the chain never moves, the estimator is globally
	// valid, and Jump must be exact and cheap.
	opts := JumpOptions{Instances: 200, FingerprintLen: 10, MasterSeed: 7}
	c := NewBranchChain(0)
	jumpStates, jst, err := Jump(c, 128, opts)
	if err != nil {
		t.Fatal(err)
	}
	naiveStates, nst, err := NaiveEvaluate(c, 128, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jumpStates {
		if jumpStates[i][0] != naiveStates[i][0] {
			t.Fatalf("instance %d: jump %g != naive %g", i, jumpStates[i][0], naiveStates[i][0])
		}
	}
	if jst.TotalStepInvocations() >= nst.TotalStepInvocations() {
		t.Fatalf("jump did %d invocations, naive %d; no savings",
			jst.TotalStepInvocations(), nst.TotalStepInvocations())
	}
	if jst.Rebuilds != 1 {
		t.Fatalf("static chain rebuilds = %d, want 1", jst.Rebuilds)
	}
}

func TestJumpTargetZero(t *testing.T) {
	c := NewBranchChain(0.5)
	states, st, err := Jump(c, 0, JumpOptions{Instances: 8, FingerprintLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range states {
		if s[0] != 0 {
			t.Fatal("target 0 must return initial states")
		}
	}
	if st.TotalStepInvocations() != 0 {
		t.Fatalf("target 0 performed %d invocations", st.TotalStepInvocations())
	}
}

func TestJumpExactForEventChain(t *testing.T) {
	// Correlated discontinuities (the paper's motivating structure,
	// §4): the shift mapping absorbs every shared event, so Jump's
	// final states equal the naive baseline exactly, at a fraction of
	// the step invocations.
	for _, rate := range []float64{0.005, 0.02, 0.05} {
		opts := JumpOptions{Instances: 300, FingerprintLen: 10, MasterSeed: 31}
		c := NewEventChain(rate, 77)
		const target = 200
		jumpStates, jst, err := Jump(c, target, opts)
		if err != nil {
			t.Fatal(err)
		}
		naiveStates, nst, err := NaiveEvaluate(c, target, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range jumpStates {
			if jumpStates[i][0] != naiveStates[i][0] {
				t.Fatalf("rate=%g instance %d: jump %g != naive %g",
					rate, i, jumpStates[i][0], naiveStates[i][0])
			}
		}
		if jst.TotalStepInvocations() >= nst.TotalStepInvocations() {
			t.Fatalf("rate=%g: jump %d invocations, naive %d",
				rate, jst.TotalStepInvocations(), nst.TotalStepInvocations())
		}
	}
}

func TestJumpApproximatesDivergingBranchChain(t *testing.T) {
	// Per-instance divergence is the documented approximation regime
	// of Algorithm 4: rebuilds replace state with M(Fest(state)), so
	// drift accrued by non-fingerprint instances inside a region is
	// captured only through the mapping. At low branching the error
	// stays small in absolute terms.
	const target = 128
	const p = 0.001
	opts := JumpOptions{Instances: 400, FingerprintLen: 10, MasterSeed: 99}
	c := NewBranchChain(p)
	jumpStates, _, err := Jump(c, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	naiveStates, _, err := NaiveEvaluate(c, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	jm := meanOf(Outputs(c, jumpStates))
	nm := meanOf(Outputs(c, naiveStates))
	if math.Abs(nm-p*target) > 0.5 {
		t.Fatalf("naive mean %g far from expectation %g", nm, p*target)
	}
	if math.Abs(jm-nm) > 0.2 {
		t.Fatalf("jump mean %g vs naive %g: approximation error too large", jm, nm)
	}
}

func TestEventChainSchedule(t *testing.T) {
	c := NewEventChain(0.5, 3)
	// Deterministic schedule.
	for s := 0; s < 64; s++ {
		if c.EventAt(s) != c.EventAt(s) {
			t.Fatal("EventAt not deterministic")
		}
	}
	// Rate respected over many steps.
	fires := 0
	const n = 20000
	for s := 0; s < n; s++ {
		if c.EventAt(s) {
			fires++
		}
	}
	if rate := float64(fires) / n; math.Abs(rate-0.5) > 0.02 {
		t.Fatalf("event rate = %g, want ~0.5", rate)
	}
	// Magnitude applied.
	c2 := &EventChain{Rate: 1, EventSeed: 1, Magnitude: 2.5}
	if got := c2.Step(1, State{1}, nil); got[0] != 3.5 {
		t.Fatalf("magnitude ignored: %v", got)
	}
}

func TestJumpSavesWorkAtLowBranching(t *testing.T) {
	opts := JumpOptions{Instances: 500, FingerprintLen: 10, MasterSeed: 3}
	const target = 128
	c := NewBranchChain(0.0005)
	_, jst, err := Jump(c, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	naiveWork := opts.Instances * target
	if jst.TotalStepInvocations()*3 > naiveWork {
		t.Fatalf("jump work %d not well below naive %d", jst.TotalStepInvocations(), naiveWork)
	}
}

func TestJumpDegradesGracefullyAtHighBranching(t *testing.T) {
	// At a high branching factor the estimator fails almost
	// immediately and Jump must still terminate with correct-length
	// output (Fig. 12's right edge, where naive wins).
	opts := JumpOptions{Instances: 50, FingerprintLen: 5, MasterSeed: 11}
	c := NewBranchChain(0.5)
	states, st, err := Jump(c, 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 50 {
		t.Fatalf("states = %d", len(states))
	}
	if st.Regions < 10 {
		t.Fatalf("high branching should force many regions, got %d", st.Regions)
	}
}

func TestDemandReleaseChainTriggers(t *testing.T) {
	c := NewDemandReleaseChain()
	opts := JumpOptions{Instances: 100, FingerprintLen: 10, MasterSeed: 17}
	const target = 60
	states, _, err := NaiveEvaluate(c, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	released := 0
	for _, s := range states {
		if s[1] != unreleasedSentinel {
			released++
			if s[1] < 40 || s[1] > float64(target+c.ReleaseLag) {
				t.Fatalf("implausible release week %g", s[1])
			}
		}
	}
	if released < 90 {
		t.Fatalf("only %d/100 instances released by week %d", released, target)
	}
}

func TestJumpDemandReleaseTracksNaive(t *testing.T) {
	c := NewDemandReleaseChain()
	opts := JumpOptions{Instances: 300, FingerprintLen: 10, MasterSeed: 23}
	const target = 80
	jumpStates, jst, err := Jump(c, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	naiveStates, _, err := NaiveEvaluate(c, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	jm := meanOf(Outputs(c, jumpStates))
	nm := meanOf(Outputs(c, naiveStates))
	if rel := math.Abs(jm-nm) / nm; rel > 0.05 {
		t.Fatalf("jump demand mean %g vs naive %g (rel %g)", jm, nm, rel)
	}
	if jst.TotalStepInvocations() >= opts.Instances*target {
		t.Fatal("jump performed no better than naive on an event-style chain")
	}
}

func TestFuncChainDefaults(t *testing.T) {
	c := &FuncChain{
		InitialState: State{1, 2},
		StepFn: func(step int, prev State, r *rng.Rand) State {
			return State{prev[0] + 1, prev[1]}
		},
	}
	if c.Output(State{7, 9}) != 7 {
		t.Fatal("default output not component 0")
	}
	mapped := c.ApplyMapping(core.Shift(10), State{1, 2})
	if mapped[0] != 11 || mapped[1] != 2 {
		t.Fatalf("default mapping = %v", mapped)
	}
	// Custom hooks override defaults.
	c.OutputFn = func(s State) float64 { return s[1] }
	c.ApplyFn = func(m core.Linear, s State) State { return State{s[0], m.Apply(s[1])} }
	if c.Output(State{7, 9}) != 9 {
		t.Fatal("custom output ignored")
	}
	if got := c.ApplyMapping(core.Shift(1), State{7, 9}); got[1] != 10 {
		t.Fatal("custom apply ignored")
	}
	init := c.Initial()
	init[0] = 99
	if c.InitialState[0] != 1 {
		t.Fatal("Initial aliases the template state")
	}
}

func TestStateClone(t *testing.T) {
	s := State{1, 2}
	c := s.Clone()
	c[0] = 9
	if s[0] != 1 {
		t.Fatal("Clone aliases")
	}
}

func TestStepSeedDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 50; i++ {
		for s := 0; s < 50; s++ {
			k := stepSeed(42, i, s)
			if seen[k] {
				t.Fatalf("seed collision at (%d,%d)", i, s)
			}
			seen[k] = true
		}
	}
	if stepSeed(1, 2, 3) != stepSeed(1, 2, 3) {
		t.Fatal("stepSeed not deterministic")
	}
	if stepSeed(1, 2, 3) == stepSeed(2, 2, 3) {
		t.Fatal("master seed ignored")
	}
}

func TestValidateStateErrors(t *testing.T) {
	err := validateState(State{1}, State{1, 2}, "test")
	if err == nil || !strings.Contains(err.Error(), "test returned state dim 1, want 2") {
		t.Fatalf("dimension mismatch: err = %v", err)
	}
	if err := validateState(State{3, 4}, State{1, 2}, "test"); err != nil {
		t.Fatalf("matching dimensions: %v", err)
	}
}

// TestMalformedStateIsError pins that a wrong-dimension state is an
// error from both entry points, not a panic. The rare chain's Step
// returns a 1-component state on 0.1% of draws, and reading prev[1]
// of such a state would panic; Jump meets those draws on the
// fingerprint instances, in the estimator, in the full step and in
// rebuild. The mapped chain's ApplyMapping drops a component, which
// only Jump's rebuild calls.
func TestMalformedStateIsError(t *testing.T) {
	rare := &FuncChain{
		InitialState: State{0, 0},
		StepFn: func(_ int, prev State, r *rng.Rand) State {
			u := r.Uniform(0, 1)
			if u < 0.001 {
				return State{prev[0]}
			}
			return State{prev[0] + u, prev[1]}
		},
	}
	mapped := &FuncChain{
		InitialState: State{0, 0},
		StepFn: func(_ int, prev State, _ *rng.Rand) State {
			return State{prev[0] + 1, prev[1]}
		},
		ApplyFn: func(m core.Linear, s State) State { return State{m.Apply(s[0])} },
	}
	type entry func(Chain, int, JumpOptions) ([]State, JumpStats, error)
	for _, tc := range []struct {
		name  string
		c     Chain
		entry entry
		want  string
	}{
		{"rare/naive", rare, NaiveEvaluate, "Step returned state dim 1, want 2"},
		{"rare/jump", rare, Jump, "Step returned state dim 1, want 2"},
		{"mapped/jump", mapped, Jump, "ApplyMapping returned state dim 1, want 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := JumpOptions{Instances: 2000, FingerprintLen: 4, MasterSeed: 9}
			states, _, err := tc.entry(tc.c, 30, opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			if states != nil {
				t.Fatalf("a failed run returned %d states", len(states))
			}
		})
	}
}

func TestOutputsHelper(t *testing.T) {
	c := NewBranchChain(0)
	got := Outputs(c, []State{{1}, {2}, {3}})
	if len(got) != 3 || got[1] != 2 {
		t.Fatalf("Outputs = %v", got)
	}
}

// meanOf is the sample mean of xs.
func meanOf(xs []float64) float64 {
	a := stats.NewAccumulator()
	a.AddAll(xs)
	return a.Mean()
}
