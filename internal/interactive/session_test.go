package interactive

import (
	"math"
	"strings"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
)

// linear is affine in "week": all points share one basis.
func linear(w float64, r *rng.Rand) float64 { return r.Normal(2*w, 0.5*w+1) }

// fork switches distributions at week 10 in a way that linear
// mappings cannot absorb (noise from different draw counts), forcing
// distinct bases and exercising validation.
func fork(w float64, r *rng.Rand) float64 {
	if w < 10 {
		return r.Normal(w, 1)
	}
	a := r.Normal(0, 1)
	b := r.Normal(w, 2)
	return a*a + b
}

// weeks is the space of one "week" parameter from lo to hi.
func weeks(t *testing.T, lo, hi float64) *param.Space {
	t.Helper()
	d, err := param.Range("week", lo, hi, 1)
	if err != nil {
		t.Fatal(err)
	}
	return param.MustSpace(d)
}

// weekEval binds a plain model of the "week" parameter over space.
func weekEval(space *param.Space, fn func(w float64, r *rng.Rand) float64) mc.PointEval {
	return mc.MustBindBox(blackbox.Func{
		FuncName: "week", NArgs: 1,
		Fn: func(a []float64, r *rng.Rand) float64 { return fn(a[0], r) },
	}, space, "week")
}

// state returns the session's state of point p, nil when unvisited.
func state(t *testing.T, s *Session, p param.Point) *pointState {
	t.Helper()
	idx, err := s.eval.Space().Index(p)
	if err != nil {
		t.Fatal(err)
	}
	return s.points[idx]
}

func newTestSession(t *testing.T, fn func(w float64, r *rng.Rand) float64, lo, hi float64) *Session {
	t.Helper()
	s, err := NewSession(weekEval(weeks(t, lo, hi), fn), Options{MasterSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// spaceless is an evaluator that reports no parameter space.
type spaceless struct{ mc.PointEval }

func (spaceless) Space() *param.Space { return nil }

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession(nil, Options{}); err == nil {
		t.Fatal("nil eval accepted")
	}
	if _, err := NewSession(spaceless{weekEval(weeks(t, 0, 5), linear)}, Options{}); err == nil {
		t.Fatal("an evaluator without a space accepted")
	}
}

func TestNewSessionRejectsInvalidOptions(t *testing.T) {
	eval := weekEval(weeks(t, 0, 5), linear)
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"negative batch size", Options{BatchSize: -1}, "BatchSize"},
		{"negative fingerprint length", Options{FingerprintLen: -3}, "FingerprintLen"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSession(eval, tc.opts)
			if err == nil {
				t.Fatalf("NewSession(%+v) accepted invalid options (session %v)", tc.opts, s != nil)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

func TestOptionsDefaults(t *testing.T) {
	o, err := Options{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.BatchSize != 10 || o.FingerprintLen != 10 {
		t.Fatalf("defaults = %+v", o)
	}
	set := Options{BatchSize: 3, FingerprintLen: 4, MasterSeed: 9}
	if o, err := set.withDefaults(); err != nil || o != set {
		t.Fatalf("withDefaults(%+v) = %+v, %v; want it unchanged", set, o, err)
	}
}

func TestTickRequiresFocus(t *testing.T) {
	s := newTestSession(t, linear, 0, 5)
	if _, _, err := s.Tick(); err != ErrNoFocus {
		t.Fatalf("err = %v", err)
	}
}

func TestSetFocusValidatesPoint(t *testing.T) {
	s := newTestSession(t, linear, 0, 5)
	if err := s.SetFocus(param.Point{"week": 99}); err == nil {
		t.Fatal("off-domain focus accepted")
	}
	if err := s.SetFocus(param.Point{"week": 3}); err != nil {
		t.Fatal(err)
	}
	if s.Focus().MustGet("week") != 3 {
		t.Fatal("focus not recorded")
	}
	if err := s.SetFocus(param.Point{"week": 4, "nosuch": 3}); err == nil {
		t.Fatal("focus binding an undeclared name accepted")
	}
	if f := s.Focus(); len(f) != 1 || f.MustGet("week") != 3 {
		t.Fatalf("a rejected focus moved it to %v", f)
	}
}

func TestImmediateEstimateAfterFocus(t *testing.T) {
	s := newTestSession(t, linear, 1, 20)
	if err := s.SetFocus(param.Point{"week": 5}); err != nil {
		t.Fatal(err)
	}
	sum, ok := s.Estimate(param.Point{"week": 5})
	if !ok {
		t.Fatal("no estimate after focus")
	}
	if sum.N < 10 {
		t.Fatalf("initial estimate from %d samples", sum.N)
	}
	if _, ok := s.Estimate(param.Point{"week": 19}); ok {
		t.Fatal("estimate for untouched point")
	}
}

func TestSecondPointReusesBasisInstantly(t *testing.T) {
	s := newTestSession(t, linear, 1, 20)
	if err := s.SetFocus(param.Point{"week": 5}); err != nil {
		t.Fatal(err)
	}
	// Refine week 5 for a while.
	for i := 0; i < 30; i++ {
		if _, _, err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	evalsBefore := s.Stats().Evaluations
	if err := s.SetFocus(param.Point{"week": 12}); err != nil {
		t.Fatal(err)
	}
	sum, ok := s.Estimate(param.Point{"week": 12})
	if !ok {
		t.Fatal("no estimate for mapped point")
	}
	// The initial guess costs only a fingerprint (10 draws) but
	// inherits the basis pool accumulated for week 5.
	cost := s.Stats().Evaluations - evalsBefore
	if cost > s.opts.FingerprintLen {
		t.Fatalf("second point cost %d evaluations", cost)
	}
	if sum.N < 50 {
		t.Fatalf("mapped estimate uses only %d samples", sum.N)
	}
	// And the estimate is in the right place: E ≈ 24.
	if math.Abs(sum.Mean-24) > 3 {
		t.Fatalf("mapped mean = %g, want ~24", sum.Mean)
	}
	if s.Stats().Bases != 1 {
		t.Fatalf("bases = %d, want 1", s.Stats().Bases)
	}
}

func TestRefinementSharpensEstimate(t *testing.T) {
	s := newTestSession(t, linear, 1, 20)
	if err := s.SetFocus(param.Point{"week": 8}); err != nil {
		t.Fatal(err)
	}
	first, _ := s.Estimate(param.Point{"week": 8})
	for i := 0; i < 60; i++ {
		if _, _, err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	later, _ := s.Estimate(param.Point{"week": 8})
	if later.N <= first.N {
		t.Fatalf("refinement did not grow the pool: %d -> %d", first.N, later.N)
	}
	ciFirst, _ := first.ConfidenceInterval(0.95)
	ciLater, _ := later.ConfidenceInterval(0.95)
	if ciLater >= ciFirst {
		t.Fatalf("confidence interval did not shrink: %g -> %g", ciFirst, ciLater)
	}
}

func TestTaskRotation(t *testing.T) {
	s := newTestSession(t, linear, 1, 20)
	if err := s.SetFocus(param.Point{"week": 10}); err != nil {
		t.Fatal(err)
	}
	seen := map[Task]bool{}
	for i := 0; i < 9; i++ {
		task, _, err := s.Tick()
		if err != nil {
			t.Fatal(err)
		}
		seen[task] = true
	}
	for _, task := range []Task{TaskRefinement, TaskValidation, TaskExploration} {
		if !seen[task] {
			t.Fatalf("task %v never scheduled", task)
		}
	}
	st := s.Stats()
	if st.Refinements == 0 || st.Validations == 0 || st.Explorations == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExplorationPrefetchesNeighbors(t *testing.T) {
	s := newTestSession(t, linear, 1, 20)
	if err := s.SetFocus(param.Point{"week": 10}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, _, err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// Both neighbors of 10 should have estimates by now.
	if _, ok := s.Estimate(param.Point{"week": 9}); !ok {
		t.Fatal("neighbor 9 not prefetched")
	}
	if _, ok := s.Estimate(param.Point{"week": 11}); !ok {
		t.Fatal("neighbor 11 not prefetched")
	}
}

func TestValidationDetachesFalseMatch(t *testing.T) {
	// fork's two regimes can produce fingerprints that match by
	// accident at m=10 but diverge on later samples; after enough
	// validation ticks every surviving mapping must be genuine. Run on
	// both sides of the fork and require that cross-regime points do
	// not share a basis at the end.
	s, err := NewSession(weekEval(weeks(t, 8, 12), fork), Options{MasterSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{8, 9, 10, 11, 12} {
		if err := s.SetFocus(param.Point{"week": w}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if _, _, err := s.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	left := state(t, s, param.Point{"week": 8})
	right := state(t, s, param.Point{"week": 12})
	if left.basisID == right.basisID {
		t.Fatal("cross-regime points share a basis after validation")
	}
	// Estimates track the true means (8 and ~13 = 12+E[a²]).
	le, _ := s.Estimate(param.Point{"week": 8})
	re, _ := s.Estimate(param.Point{"week": 12})
	if math.Abs(le.Mean-8) > 1.5 {
		t.Fatalf("left estimate %g, want ~8", le.Mean)
	}
	if math.Abs(re.Mean-13) > 2.5 {
		t.Fatalf("right estimate %g, want ~13", re.Mean)
	}
}

// TestValidationStopsAtFirstMismatch pins what a validation batch
// keeps: it draws as one block, but the point keeps, and Evaluations
// counts, only the samples up to and including the first one its
// mapping fails to reproduce, and that failure rebinds the point.
func TestValidationStopsAtFirstMismatch(t *testing.T) {
	s := newTestSession(t, linear, 1, 20)
	if err := s.SetFocus(param.Point{"week": 5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, _, err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetFocus(param.Point{"week": 12}); err != nil {
		t.Fatal(err)
	}
	ps := state(t, s, param.Point{"week": 12})
	b := s.bases[ps.basisID]
	// A first, clean batch reproduces the fingerprint ids the point
	// has already drawn, so the next one draws only fresh samples.
	rebinds := s.Stats().Rebinds
	s.validate(ps)
	if s.Stats().Rebinds != rebinds || ps.basisID != b.id {
		t.Fatal("a clean validation batch rebound the point")
	}
	// The batch validate draws next: the basis' foreign, unvalidated
	// ids in order, at most BatchSize of them.
	var ids []int
	for id, smp := range b.samples {
		if smp.ok && smp.from != ps.idx && !(ps.drawn.has(id) && ps.drawn[id].validated) {
			ids = append(ids, id)
		}
	}
	ids = ids[:min(len(ids), s.opts.BatchSize)]
	const bad = 2
	if len(ids) <= bad+1 {
		t.Fatalf("only %d foreign samples to validate", len(ids))
	}
	for _, id := range ids {
		if ps.drawn.has(id) {
			t.Fatalf("sample %d drawn before validation", id)
		}
	}
	b.samples[ids[bad]].v += 1000
	before := s.Stats()
	drawnBefore := drawnCount(ps)
	s.validate(ps)
	after := s.Stats()
	if got := after.Evaluations - before.Evaluations; got != bad+1 {
		t.Fatalf("validation counted %d evaluations, want %d (through the first mismatch)", got, bad+1)
	}
	if after.Rebinds != before.Rebinds+1 {
		t.Fatalf("rebinds %d -> %d, want one more", before.Rebinds, after.Rebinds)
	}
	if got := drawnCount(ps) - drawnBefore; got != bad+1 {
		t.Fatalf("point kept %d new samples, want %d", got, bad+1)
	}
	for k, id := range ids {
		if ok := ps.drawn.has(id); ok != (k <= bad) {
			t.Fatalf("sample %d (batch position %d) kept = %v", id, k, ok)
		}
	}
	if ps.basisID == b.id {
		t.Fatal("mismatched point still on its old basis")
	}
}

// drawnCount is the number of samples drawn directly for ps.
func drawnCount(ps *pointState) int {
	n := 0
	for _, d := range ps.drawn {
		if d.ok {
			n++
		}
	}
	return n
}

func TestSinglePointSpaceExploration(t *testing.T) {
	s, err := NewSession(weekEval(weeks(t, 5, 5), linear), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFocus(param.Point{"week": 5}); err != nil {
		t.Fatal(err)
	}
	// Exploration has no neighbors; the tick must degrade to
	// refinement rather than error or loop.
	for i := 0; i < 6; i++ {
		if _, _, err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	sum, _ := s.Estimate(param.Point{"week": 5})
	if sum.N <= 10 {
		t.Fatalf("pool did not grow: %d", sum.N)
	}
}

func TestTaskString(t *testing.T) {
	if TaskRefinement.String() != "refinement" ||
		TaskValidation.String() != "validation" ||
		TaskExploration.String() != "exploration" {
		t.Fatal("task strings broken")
	}
	if !strings.Contains(Task(9).String(), "9") {
		t.Fatal("unknown task string")
	}
}

func TestEstimateDeterministicGivenTicks(t *testing.T) {
	run := func() float64 {
		s := newTestSession(t, linear, 1, 20)
		if err := s.SetFocus(param.Point{"week": 7}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 15; i++ {
			if _, _, err := s.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		sum, _ := s.Estimate(param.Point{"week": 7})
		return sum.Mean
	}
	if run() != run() {
		t.Fatal("session not deterministic under fixed seed")
	}
}
