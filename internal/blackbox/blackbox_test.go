package blackbox

import (
	"errors"
	"testing"

	"jigsaw/internal/rng"
)

func TestFuncAdapter(t *testing.T) {
	f := Func{FuncName: "Const", NArgs: 1, Fn: func(args []float64, r *rng.Rand) float64 {
		return args[0] * 2
	}}
	if f.Name() != "Const" || f.Arity() != 1 {
		t.Fatal("metadata broken")
	}
	if got := f.Eval([]float64{3}, rng.New(1)); got != 6 {
		t.Fatalf("Eval = %g", got)
	}
}

func TestArityPanics(t *testing.T) {
	boxes := []Box{
		NewDemand(), NewCapacity(), NewOverload(),
		NewUserSelection(4, 1), NewSynthBasis(3), NewMarkovStepBox(), NewMarkovBranch(0.1),
		Func{FuncName: "f", NArgs: 2, Fn: func([]float64, *rng.Rand) float64 { return 0 }},
	}
	for _, b := range boxes {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: wrong arity did not panic", b.Name())
				}
			}()
			b.Eval(make([]float64, b.Arity()+1), rng.New(1))
		}()
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(NewDemand())
	reg.MustRegister(NewCapacity())

	b, err := reg.Lookup("DemandModel")
	if err != nil || b.Name() != "DemandModel" {
		t.Fatalf("lookup = %v, %v", b, err)
	}
	if _, err := reg.Lookup("Nope"); !errors.Is(err, ErrUnknownBox) {
		t.Fatalf("unknown lookup err = %v", err)
	}
	if err := reg.Register(NewDemand()); !errors.Is(err, ErrDuplicateBox) {
		t.Fatalf("duplicate register err = %v", err)
	}
	if err := reg.Register(Func{FuncName: ""}); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestRegistryMustRegisterPanics(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(NewDemand())
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister duplicate did not panic")
		}
	}()
	reg.MustRegister(NewDemand())
}

func TestDemandDeterministicAndGrowing(t *testing.T) {
	d := NewDemand()
	a := d.Eval([]float64{10, 52}, rng.New(7))
	b := d.Eval([]float64{10, 52}, rng.New(7))
	if a != b {
		t.Fatal("Demand not deterministic under fixed seed")
	}

	// Expected demand grows linearly; average over many seeds.
	meanAt := func(week float64) float64 {
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += d.Eval([]float64{week, 100}, rng.New(uint64(i)))
		}
		return sum / n
	}
	m10, m40 := meanAt(10), meanAt(40)
	if m40 < m10*3.5 || m40 > m10*4.5 {
		t.Fatalf("demand growth not ~linear: mean(10)=%g mean(40)=%g", m10, m40)
	}
}

func TestDemandFeatureBoostsGrowth(t *testing.T) {
	d := NewDemand()
	const week = 40.0
	var withF, withoutF float64
	const n = 20000
	for i := 0; i < n; i++ {
		withF += d.Eval([]float64{week, 10}, rng.New(uint64(i)))
		withoutF += d.Eval([]float64{week, 100}, rng.New(uint64(i)))
	}
	withF /= n
	withoutF /= n
	// Post-release adds ~0.2*(40-10) = 6 expected cores.
	if withF-withoutF < 4 || withF-withoutF > 8 {
		t.Fatalf("feature lift = %g, want ~6", withF-withoutF)
	}
}

func TestDemandWeekZeroFinite(t *testing.T) {
	d := NewDemand()
	if got := d.Eval([]float64{0, 10}, rng.New(1)); got != 0 {
		// Variance 0 at week 0 means exactly µ = 0.
		t.Fatalf("demand at week 0 = %g, want 0", got)
	}
}

func TestCapacityPurchasesComeOnline(t *testing.T) {
	c := NewCapacity()
	meanAt := func(week float64) float64 {
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += c.Eval([]float64{week, 10, 20}, rng.New(uint64(i)))
		}
		return sum / n
	}
	early := meanAt(5) // before either purchase
	mid := meanAt(15)  // first purchase online in most worlds
	late := meanAt(40) // both purchases online in ~all worlds
	if !(early < mid && mid < late) {
		t.Fatalf("capacity not increasing: %g, %g, %g", early, mid, late)
	}
	if late-early < 70 || late-early > 90 {
		t.Fatalf("two purchases add %g, want ~80", late-early)
	}
}

func TestCapacityStreamAlignmentAcrossPoints(t *testing.T) {
	// With the same seed, two far-future weeks see identical noise,
	// failures, and delays, so outputs are *identical* — the basis
	// reuse Fig. 9 discusses.
	c := NewCapacity()
	for seed := uint64(0); seed < 200; seed++ {
		a := c.Eval([]float64{40, 1, 2}, rng.New(seed))
		b := c.Eval([]float64{45, 1, 2}, rng.New(seed))
		if a != b {
			t.Fatalf("seed %d: far-future capacities differ: %g vs %g", seed, a, b)
		}
	}
}

func TestOverloadBooleanOutput(t *testing.T) {
	o := NewOverload()
	ones := 0
	const n = 5000
	for i := 0; i < n; i++ {
		v := o.Eval([]float64{50, 0, 4}, rng.New(uint64(i)))
		if v != 0 && v != 1 {
			t.Fatalf("overload output %g not boolean", v)
		}
		if v == 1 {
			ones++
		}
	}
	if ones == 0 || ones == n {
		t.Fatalf("overload degenerate at %d/%d; model constants broken", ones, n)
	}
}

func TestOverloadMoreLikelyAtHighDemand(t *testing.T) {
	o := NewOverload()
	rate := func(week float64) float64 {
		hits := 0.0
		const n = 10000
		for i := 0; i < n; i++ {
			hits += o.Eval([]float64{week, 0, 0}, rng.New(uint64(i)))
		}
		return hits / n
	}
	if rate(150) <= rate(50) {
		t.Fatalf("overload rate not increasing with demand: %g vs %g", rate(50), rate(150))
	}
}
