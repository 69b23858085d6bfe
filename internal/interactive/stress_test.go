package interactive

import (
	"testing"

	"jigsaw/internal/param"
	"jigsaw/internal/rng"
)

// TestFocusRandomWalk stresses the session with a long pseudo-random
// walk of slider moves interleaved with background ticks, checking
// structural invariants after every step: every visited point has an
// estimate, bases never exceed visited points, the evaluation counter
// is monotone, and each basis pool only grows.
func TestFocusRandomWalk(t *testing.T) {
	s, err := NewSession(weekEval(weeks(t, 0, 30), linear), Options{MasterSeed: 13})
	if err != nil {
		t.Fatal(err)
	}
	walk := rng.New(777)
	visited := map[float64]bool{}
	lastEvals := 0
	week := 15.0
	for step := 0; step < 200; step++ {
		// Random slider move of ±1..3 weeks, clamped to the domain.
		delta := float64(int(walk.Uint64()%7) - 3)
		week += delta
		if week < 0 {
			week = 0
		}
		if week > 30 {
			week = 30
		}
		p := param.Point{"week": week}
		if err := s.SetFocus(p); err != nil {
			t.Fatal(err)
		}
		visited[week] = true
		for i := 0; i < int(walk.Uint64()%4); i++ {
			if _, _, err := s.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		if st.Evaluations < lastEvals {
			t.Fatalf("evaluation counter went backwards: %d -> %d", lastEvals, st.Evaluations)
		}
		lastEvals = st.Evaluations
		if st.Bases > len(s.points) {
			t.Fatalf("bases %d exceed visited points %d", st.Bases, len(s.points))
		}
		for w := range visited {
			p := param.Point{"week": w}
			if state(t, s, p) == nil {
				t.Fatalf("visited point %v lost", p)
			}
			if _, ok := s.Estimate(p); !ok {
				t.Fatalf("no estimate for visited point %v", p)
			}
		}
	}
	// The affine model should have collapsed the whole walk onto very
	// few bases (week 0 is degenerate-constant and may stand alone).
	if st := s.Stats(); st.Bases > 3 {
		t.Fatalf("random walk created %d bases on an affine model", st.Bases)
	}
}

// TestEstimatesConvergeUnderSustainedTicks runs many ticks on a single
// focus and requires the confidence interval to shrink monotonically
// over long windows (allowing local noise).
func TestEstimatesConvergeUnderSustainedTicks(t *testing.T) {
	s, err := NewSession(weekEval(weeks(t, 1, 10), linear), Options{MasterSeed: 4})
	if err != nil {
		t.Fatal(err)
	}
	focus := param.Point{"week": 5}
	if err := s.SetFocus(focus); err != nil {
		t.Fatal(err)
	}
	var cis []float64
	for window := 0; window < 5; window++ {
		for i := 0; i < 30; i++ {
			if _, _, err := s.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		sum, ok := s.Estimate(focus)
		if !ok {
			t.Fatal("estimate missing")
		}
		ci, err := sum.ConfidenceInterval(0.95)
		if err != nil {
			t.Fatal(err)
		}
		cis = append(cis, ci)
	}
	if cis[len(cis)-1] >= cis[0] {
		t.Fatalf("confidence interval did not shrink over 150 ticks: %v", cis)
	}
}
