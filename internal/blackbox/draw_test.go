package blackbox

import (
	"fmt"
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

// drawApply is one sample through the DrawBox split: bind, draw, and
// apply a block of one lane.
func drawApply(b DrawBox, args []float64, r *rng.Rand) float64 {
	state := make([]float64, b.BoundLen())
	d := make([]float64, b.Draws())
	b.Bind(args, state)
	b.Draw(r, d)
	return apply1(b, state, d)
}

// apply1 applies the one draw vector d to state.
func apply1(b DrawBox, state, d []float64) float64 {
	var out [1]float64
	b.Apply(state, d, 0, []int{0}, out[:])
	return out[0]
}

// drawTable is a seed-only row's draw table as exec lays it out: one
// vector per seed, width floats apart, b's region at offset off, and
// every slot b does not own poisoned with NaN.
func drawTable(b DrawBox, seeds []uint64, width, off int) []float64 {
	table := make([]float64, len(seeds)*width)
	for i := range table {
		table[i] = math.NaN()
	}
	var r rng.Rand
	for i, seed := range seeds {
		r.Seed(seed)
		b.Draw(&r, table[i*width+off:][:b.Draws()])
	}
	return table
}

// applyLaneCounts are the block sizes the block Apply is checked at:
// empty, one lane, and a full and a ragged exec block.
var applyLaneCounts = []int{0, 1, 127, 128}

// shuffledIDs returns n sample ids below m, shuffled and (for n > m)
// repeated.
func shuffledIDs(n, m int, salt uint64) []int {
	r := rng.New(salt)
	ids := make([]int, n)
	for j := range ids {
		ids[j] = int(r.Uint64() % uint64(m))
	}
	return ids
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

// sampleSeeds returns the seeds of master's samples 0 to n−1.
func sampleSeeds(master uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for k := range seeds {
		seeds[k] = rng.SampleSeed(master, k)
	}
	return seeds
}

// TestDrawBoxMatchesEval pins the DrawBox contract for Demand and
// Capacity: over argument grids that include NaN, ±Inf, weeks before
// a purchase or release and after it, Bind+Draw+Apply returns the bits
// of Eval, of Bind+EvalBound and of the scalar oracle, and leaves the
// generator in the oracle's state with the same cached polar variate.
// The block Apply, reading a table whose vectors sit wider apart than
// Draws() at a non-zero site offset, writes every lane of 0, 1, 127
// and 128 shuffled and repeated ids the oracle's bits for its seed,
// and nothing past its lanes. It runs each model on a fresh generator
// and then Demand followed by Capacity on one generator, so Capacity's
// noise draw takes the variate Demand's draw cached, as in the Fig. 1
// row.
func TestDrawBoxMatchesEval(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(-1), math.Inf(1), -4, 0, 12, 13, 30, 52}
	demand, capacity := NewDemand(), NewCapacity()
	// A −0 base with no noise and no failures keeps its sign only where
	// the noise term is not rng.NormalFrom's 0 + σ·z, which is +0.
	signedZero := &Capacity{Base: math.Copysign(0, -1), PurchaseVolume: 40, MeanDelay: 2, FailTrials: 10}
	seeds := sampleSeeds(0xd7a3, 40)
	bits := math.Float64bits
	same := func(a, b float64) bool { return bits(a) == bits(b) }
	for _, tc := range []struct {
		box  DrawBox
		args [][]float64
	}{
		{demand, drawArgs(2, vals)},
		{capacity, drawArgs(3, vals)},
		{signedZero, drawArgs(3, vals)},
	} {
		state := make([]float64, tc.box.BoundLen())
		const off = 2
		width := tc.box.Draws() + 3
		table := drawTable(tc.box, seeds, width, off)
		ref := make([]float64, len(seeds))
		out := make([]float64, 129)
		for _, args := range tc.args {
			tc.box.Bind(args, state)
			for i, seed := range seeds {
				var want, eval, bound, got rng.Rand
				want.Seed(seed)
				eval.Seed(seed)
				bound.Seed(seed)
				got.Seed(seed)
				w, e, b, g := evalRef(tc.box, args, &want), tc.box.Eval(args, &eval), evalBound1(tc.box, state, &bound), drawApply(tc.box, args, &got)
				if !same(w, g) || !same(e, g) || !same(b, g) {
					t.Fatalf("%s%v seed %#x: Draw+Apply = %v, oracle = %v, Eval = %v, EvalBound = %v", tc.box.Name(), args, seed, g, w, e, b)
				}
				if want.State() != got.State() || !same(want.StdNormal(), got.StdNormal()) {
					t.Fatalf("%s%v seed %#x: generator differs after Draw+Apply", tc.box.Name(), args, seed)
				}
				ref[i] = w
			}
			for _, n := range applyLaneCounts {
				ids := shuffledIDs(n, len(seeds), uint64(n))
				for j := range out {
					out[j] = -1
				}
				tc.box.Apply(state, table[off:], width, ids, out[:n])
				for j, id := range ids {
					if !same(out[j], ref[id]) {
						t.Fatalf("%s%v, %d lanes: lane %d (id %d) = %v, oracle = %v", tc.box.Name(), args, n, j, id, out[j], ref[id])
					}
				}
				if out[n] != -1 {
					t.Fatalf("%s%v, %d lanes: Apply wrote past its lanes", tc.box.Name(), args, n)
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
			if g := apply1(c, state, d); math.Float64bits(g) != math.Float64bits(w) {
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
// with the rng's message through Eval, EvalBound, and Draw+Apply over
// a block of 1, 127 or 128 lanes alike. A block with no lane, like an
// EvalBound whose every lane is masked, draws and applies nothing and
// does not panic.
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
	both := NewCapacity()
	both.BaseNoise, both.MeanDelay = -1, -2
	args := []float64{20, 10, 30}
	seeds := sampleSeeds(0x9a1c, 128)
	for _, tc := range []struct {
		name string
		c    *Capacity
		want string
	}{
		{"negative BaseNoise", noisy, "negative sigma"},
		{"negative MeanDelay", late, "non-positive rate"},
		{"both", both, "negative sigma"},
	} {
		state := make([]float64, tc.c.BoundLen())
		tc.c.Bind(args, state)
		width := tc.c.Draws()
		table := drawTable(tc.c, seeds, width, 0)
		eval := panicOf(func() { tc.c.Eval(args, rng.New(3)) })
		if !strings.Contains(eval, tc.want) {
			t.Fatalf("%s: Eval panics %q, want it to mention %q", tc.name, eval, tc.want)
		}
		// Seeded generators: a zero xoshiro state never leaves the
		// polar method's rejection loop.
		lanes := func() []rng.Rand {
			rands := make([]rng.Rand, 4)
			advance(rands, 0x7)
			return rands
		}
		paths := map[string]func(){
			"Draw+Apply": func() { drawApply(tc.c, args, rng.New(3)) },
			"EvalBound":  func() { tc.c.EvalBound(state, make([]float64, 4), lanes(), nil) },
		}
		for _, n := range applyLaneCounts[1:] {
			paths[fmt.Sprintf("Apply, %d lanes", n)] = func() {
				tc.c.Apply(state, table, width, shuffledIDs(n, len(seeds), 5), make([]float64, n))
			}
		}
		for path, f := range paths {
			if got := panicOf(f); got != eval {
				t.Errorf("%s: %s panics %q, Eval %q", tc.name, path, got, eval)
			}
		}
		for path, f := range map[string]func(){
			"Apply, 0 lanes":        func() { tc.c.Apply(state, table, width, nil, nil) },
			"EvalBound, all masked": func() { tc.c.EvalBound(state, make([]float64, 4), lanes(), make([]bool, 4)) },
		} {
			if got := panicOf(f); got != "" {
				t.Errorf("%s: %s panics %q, want no panic: it has no lane", tc.name, path, got)
			}
		}
	}
}

// TestApplyLengthMismatchPanics: an out that is not one lane per id is
// a plumbing bug, and Apply panics on it naming the box.
func TestApplyLengthMismatchPanics(t *testing.T) {
	for _, b := range []DrawBox{NewDemand(), NewCapacity()} {
		state := make([]float64, b.BoundLen())
		d := make([]float64, b.Draws())
		for _, out := range []int{0, 2} {
			func() {
				defer func() {
					if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), b.Name()) {
						t.Fatalf("%s: out %d for 1 id recovered %v, want a panic naming the box", b.Name(), out, v)
					}
				}()
				b.Apply(state, d, 0, []int{0}, make([]float64, out))
			}()
		}
	}
}

// TestDrawApplyAllocs: drawing a sample, applying a block of draw
// vectors, Eval and a masked EvalBound allocate nothing. Eval and
// EvalBound are Draw then a one-lane Apply, so this also checks that
// their draw and state arrays stay on the stack.
func TestDrawApplyAllocs(t *testing.T) {
	r := rng.New(7)
	ids := shuffledIDs(128, 16, 1)
	out := make([]float64, len(ids))
	rands := make([]rng.Rand, 8)
	for j := range rands {
		rands[j].Seed(uint64(j) + 1)
	}
	lanes := make([]float64, len(rands))
	active := []bool{true, false, true, true, false, true, false, true}
	for _, tc := range []struct {
		box  DrawBox
		args []float64
	}{
		{NewDemand(), []float64{30, 12}},
		{NewCapacity(), []float64{20, 10, 30}},
	} {
		state := make([]float64, tc.box.BoundLen())
		width := tc.box.Draws()
		table := make([]float64, 16*width)
		tc.box.Bind(tc.args, state)
		if n := testing.AllocsPerRun(100, func() {
			tc.box.Draw(r, table[:width])
			tc.box.Apply(state, table, width, ids, out)
			tc.box.Eval(tc.args, r)
			tc.box.EvalBound(state, lanes, rands, active)
		}); n != 0 {
			t.Errorf("%s: Draw+Apply, Eval and masked EvalBound allocate %.1f per block, want 0", tc.box.Name(), n)
		}
	}
}
