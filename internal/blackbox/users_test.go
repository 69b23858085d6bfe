package blackbox

import (
	"strings"
	"testing"

	"jigsaw/internal/rng"
)

func TestGenerateUsersDeterministic(t *testing.T) {
	a := GenerateUsers(100, 9)
	b := GenerateUsers(100, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("user %d differs across generations", i)
		}
	}
	c := GenerateUsers(100, 10)
	same := 0
	for i := range a {
		if a[i].BaseCores == c[i].BaseCores {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestGenerateUsersFieldRanges(t *testing.T) {
	for _, u := range GenerateUsers(500, 3) {
		if u.JoinWeek < 0 || u.JoinWeek >= 52 {
			t.Fatalf("join week %g out of range", u.JoinWeek)
		}
		if u.BaseCores < 0.5 {
			t.Fatalf("base cores %g below Pareto floor", u.BaseCores)
		}
		if u.Volatility < 0.05 || u.Volatility > 0.3 {
			t.Fatalf("volatility %g out of range", u.Volatility)
		}
	}
}

func TestUserSelectionActivity(t *testing.T) {
	u := NewUserSelection(200, 4)
	// Before anyone joins, usage is zero.
	if got := u.Eval([]float64{-1}, rng.New(1)); got != 0 {
		t.Fatalf("usage before week 0 = %g", got)
	}
	// Usage grows as cohorts join.
	early := u.Eval([]float64{5}, rng.New(1))
	late := u.Eval([]float64{60}, rng.New(1))
	if late <= early {
		t.Fatalf("usage not growing: %g -> %g", early, late)
	}
}

func TestUserSelectionDeterministic(t *testing.T) {
	u := NewUserSelection(100, 4)
	if u.Eval([]float64{30}, rng.New(5)) != u.Eval([]float64{30}, rng.New(5)) {
		t.Fatal("UserSelection not deterministic")
	}
}

func TestUserSelectionString(t *testing.T) {
	if s := NewUserSelection(10, 1).String(); !strings.Contains(s, "10") {
		t.Fatalf("String = %q", s)
	}
}
