package blackbox

import (
	"math"
	"strings"
	"testing"

	"jigsaw/internal/rng"
)

// drawArgs returns every argument vector of the given arity over vals.
func drawArgs(arity int, vals []float64) [][]float64 {
	out := [][]float64{nil}
	for range arity {
		var next [][]float64
		for _, prefix := range out {
			for _, v := range vals {
				next = append(next, append(append([]float64(nil), prefix...), v))
			}
		}
		out = next
	}
	return out
}

// drawApply is one sample through the DrawBox split: bind, draw, apply.
func drawApply(b DrawBox, args []float64, r *rng.Rand) float64 {
	state := make([]float64, b.BoundLen())
	d := make([]float64, b.Draws())
	b.Bind(args, state)
	b.Draw(r, d)
	return b.Apply(state, d)
}

// evalRef is each model's sample written out against the generator's
// scalar samplers, in the stream order the models document: the oracle
// that pins Draw's order, which Eval, EvalBound and Draw+Apply share.
func evalRef(b DrawBox, args []float64, r *rng.Rand) float64 {
	switch m := b.(type) {
	case *Demand:
		mu, variance := m.params(args[0], args[1])
		return r.NormalVar(mu, variance)
	case *Capacity:
		capacity := m.Base + r.Normal(0, m.BaseNoise)
		capacity -= float64(r.Binomial(m.FailTrials, m.FailRate))
		for _, purchase := range args[1:] {
			if args[0] >= purchase+r.Exponential(1/m.MeanDelay) {
				capacity += m.PurchaseVolume
			}
		}
		return capacity
	}
	panic("evalRef: unknown model")
}

// TestDrawBoxMatchesEval pins the DrawBox contract for Demand and
// Capacity: over argument grids that include NaN, ±Inf, weeks before
// a purchase or release and after it, Bind+Draw+Apply returns the bits
// of Eval, of Bind+EvalBound and of the scalar oracle, and leaves the
// generator in the oracle's state with the same cached polar variate.
// It runs each model on a fresh generator and then Demand followed by
// Capacity on one generator, so Capacity's noise draw takes the
// variate Demand's draw cached, as in the Fig. 1 row.
func TestDrawBoxMatchesEval(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(-1), math.Inf(1), -4, 0, 12, 13, 30, 52}
	demand, capacity := NewDemand(), NewCapacity()
	seeds := make([]uint64, 40)
	rng.FillSeeds(0xd7a3, 0, seeds)
	bits := math.Float64bits
	same := func(a, b float64) bool { return bits(a) == bits(b) }
	for _, tc := range []struct {
		box  DrawBox
		args [][]float64
	}{
		{demand, drawArgs(2, vals)},
		{capacity, drawArgs(3, vals)},
	} {
		state := make([]float64, tc.box.BoundLen())
		for _, args := range tc.args {
			tc.box.Bind(args, state)
			for _, seed := range seeds {
				var want, eval, bound, got rng.Rand
				want.Seed(seed)
				eval.Seed(seed)
				bound.Seed(seed)
				got.Seed(seed)
				w, e, b, g := evalRef(tc.box, args, &want), tc.box.Eval(args, &eval), tc.box.EvalBound(state, &bound), drawApply(tc.box, args, &got)
				if !same(w, g) || !same(e, g) || !same(b, g) {
					t.Fatalf("%s%v seed %#x: Draw+Apply = %v, oracle = %v, Eval = %v, EvalBound = %v", tc.box.Name(), args, seed, g, w, e, b)
				}
				if want.State() != got.State() || !same(want.StdNormal(), got.StdNormal()) {
					t.Fatalf("%s%v seed %#x: generator differs after Draw+Apply", tc.box.Name(), args, seed)
				}
			}
		}
	}
	for _, dargs := range drawArgs(2, vals[3:]) {
		for _, cargs := range drawArgs(3, vals[2:6]) {
			for _, seed := range seeds[:8] {
				var want, got rng.Rand
				want.Seed(seed)
				got.Seed(seed)
				wd, wc := evalRef(demand, dargs, &want), evalRef(capacity, cargs, &want)
				gd, gc := drawApply(demand, dargs, &got), drawApply(capacity, cargs, &got)
				if !same(wd, gd) || !same(wc, gc) || want.State() != got.State() {
					t.Fatalf("Demand%v then Capacity%v seed %#x: Draw+Apply (%v, %v), Eval (%v, %v)",
						dargs, cargs, seed, gd, gc, wd, wc)
				}
			}
		}
	}
}

// TestCapacityDelayBoundary: a week that equals a purchase plus its
// drawn delay exactly lands the purchase (week >= purchase+delay) on
// both paths, and a week one ulp earlier does not, on both paths.
func TestCapacityDelayBoundary(t *testing.T) {
	c := NewCapacity()
	state := make([]float64, c.BoundLen())
	d := make([]float64, c.Draws())
	for seed := uint64(1); seed <= 50; seed++ {
		var probe rng.Rand
		probe.Seed(seed)
		c.Draw(&probe, d)
		purchase := 10.0
		landed := purchase + rng.ExponentialFrom(1/c.MeanDelay, d[2])
		for _, week := range []float64{landed, math.Nextafter(landed, 0)} {
			args := []float64{week, purchase, math.Inf(1)}
			var want, got rng.Rand
			want.Seed(seed)
			got.Seed(seed)
			w := c.Eval(args, &want)
			c.Bind(args, state)
			c.Draw(&got, d)
			if g := c.Apply(state, d); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d week %v (landing %v): Draw+Apply = %v, Eval = %v", seed, week, landed, g, w)
			}
		}
		on := c.Eval([]float64{landed, purchase, math.Inf(1)}, rng.New(seed))
		early := c.Eval([]float64{math.Nextafter(landed, 0), purchase, math.Inf(1)}, rng.New(seed))
		if math.Abs(on-early-c.PurchaseVolume) > 1e-9 {
			t.Fatalf("seed %d: capacity at the landing week exceeds one ulp earlier by %v, want %v", seed, on-early, c.PurchaseVolume)
		}
	}
}

// TestDrawBoxPanicParity: a negative BaseNoise or MeanDelay panics
// through Eval and through Draw+Apply alike, with the rng's message.
func TestDrawBoxPanicParity(t *testing.T) {
	panicOf := func(f func()) (msg string) {
		defer func() {
			if v := recover(); v != nil {
				msg, _ = v.(string)
				if msg == "" {
					msg = "non-string panic"
				}
			}
		}()
		f()
		return ""
	}
	noisy := NewCapacity()
	noisy.BaseNoise = -1
	late := NewCapacity()
	late.MeanDelay = -2
	args := []float64{20, 10, 30}
	for _, tc := range []struct {
		name string
		c    *Capacity
		want string
	}{
		{"negative BaseNoise", noisy, "negative sigma"},
		{"negative MeanDelay", late, "non-positive rate"},
	} {
		eval := panicOf(func() { tc.c.Eval(args, rng.New(3)) })
		split := panicOf(func() { drawApply(tc.c, args, rng.New(3)) })
		if !strings.Contains(eval, tc.want) || eval != split {
			t.Errorf("%s: Eval panics %q, Draw+Apply %q; want both to mention %q", tc.name, eval, split, tc.want)
		}
	}
}

// TestDrawApplyAllocs: drawing and applying a sample allocate nothing.
func TestDrawApplyAllocs(t *testing.T) {
	r := rng.New(7)
	for _, tc := range []struct {
		box  DrawBox
		args []float64
	}{
		{NewDemand(), []float64{30, 12}},
		{NewCapacity(), []float64{20, 10, 30}},
	} {
		state := make([]float64, tc.box.BoundLen())
		d := make([]float64, tc.box.Draws())
		tc.box.Bind(tc.args, state)
		if n := testing.AllocsPerRun(100, func() {
			tc.box.Draw(r, d)
			tc.box.Apply(state, d)
		}); n != 0 {
			t.Errorf("%s: Draw+Apply allocate %.1f per sample, want 0", tc.box.Name(), n)
		}
	}
}
