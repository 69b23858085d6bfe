package stats

import (
	"math"
	"testing"
	"testing/quick"

	"jigsaw/internal/rng"
)

func TestAccumulatorMoments(t *testing.T) {
	a := NewAccumulator()
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	a.AddAll(xs)
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %g", a.Mean())
	}
	// Unbiased variance of this classic set is 32/7.
	if math.Abs(a.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %g", a.Variance())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g", a.Min(), a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	a := NewAccumulator()
	if a.Mean() != 0 || a.Variance() != 0 || a.StdDev() != 0 {
		t.Fatal("empty accumulator moments non-zero")
	}
	if !math.IsInf(a.Min(), 1) || !math.IsInf(a.Max(), -1) {
		t.Fatal("empty accumulator bounds wrong")
	}
}

func TestAccumulatorSingleSample(t *testing.T) {
	a := NewAccumulator()
	a.Add(3)
	if a.Variance() != 0 {
		t.Fatal("variance of single sample != 0")
	}
	if got, want := a.Summarize(), (Summary{N: 1, Mean: 3, Min: 3, Max: 3}); got != want {
		t.Fatalf("summary of single sample = %+v, want %+v", got, want)
	}
}

func TestSummarize(t *testing.T) {
	a := NewAccumulator()
	for i := 0; i < 1000; i++ {
		a.Add(float64(i % 10))
	}
	s := a.Summarize()
	if s.N != 1000 {
		t.Fatalf("N = %d", s.N)
	}
	if math.Abs(s.Mean-4.5) > 1e-9 {
		t.Fatalf("Mean = %g", s.Mean)
	}
	if want := (Summary{N: a.N(), Mean: a.Mean(), StdDev: a.StdDev(), Min: 0, Max: 9}); s != want {
		t.Fatalf("Summarize = %+v, want %+v", s, want)
	}
}

func TestMapAffinePositiveAlpha(t *testing.T) {
	a := NewAccumulator()
	r := rng.New(1)
	for i := 0; i < 20000; i++ {
		a.Add(r.Normal(2, 3))
	}
	s := a.Summarize()
	m := s.MapAffine(2, 5)
	if math.Abs(m.Mean-(2*s.Mean+5)) > 1e-12 {
		t.Fatalf("mapped mean = %g", m.Mean)
	}
	if math.Abs(m.StdDev-2*s.StdDev) > 1e-12 {
		t.Fatalf("mapped stddev = %g", m.StdDev)
	}
	if m.Min != 2*s.Min+5 || m.Max != 2*s.Max+5 {
		t.Fatal("mapped bounds wrong")
	}
}

func TestMapAffineNegativeAlpha(t *testing.T) {
	a := NewAccumulator()
	for i := 1; i <= 100; i++ {
		a.Add(float64(i))
	}
	s := a.Summarize()
	m := s.MapAffine(-1, 0)
	if math.Abs(m.Mean+s.Mean) > 1e-12 {
		t.Fatalf("mapped mean = %g", m.Mean)
	}
	if math.Abs(m.StdDev-s.StdDev) > 1e-12 {
		t.Fatal("negative alpha must preserve stddev magnitude")
	}
	if m.Min != -100 || m.Max != -1 {
		t.Fatalf("mapped bounds = %g..%g", m.Min, m.Max)
	}
}

func TestMapAffineZeroAlpha(t *testing.T) {
	// α = 0 maps every sample to β: a point mass, whatever X was.
	a := NewAccumulator()
	for i := 1; i <= 10; i++ {
		a.Add(float64(i))
	}
	m := a.Summarize().MapAffine(0, 7)
	if want := (Summary{N: 10, Mean: 7, StdDev: 0, Min: 7, Max: 7}); m != want {
		t.Fatalf("MapAffine(0, 7) = %+v, want %+v", m, want)
	}
}

func TestSummarizeMatchesTwoPass(t *testing.T) {
	// Add's streaming update and AddBlock's fused reduction both agree
	// with the textbook two-pass moments of the same samples.
	r := rng.New(42)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Normal(10, 2)
	}
	var sum float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		sum += x
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(ss / float64(len(xs)-1))

	stream, block := NewAccumulator(), NewAccumulator()
	stream.AddAll(xs)
	block.AddBlock(xs)
	for name, s := range map[string]Summary{"Add": stream.Summarize(), "AddBlock": block.Summarize()} {
		if s.N != len(xs) || s.Min != lo || s.Max != hi {
			t.Fatalf("%s: N/Min/Max = %d/%g/%g, want %d/%g/%g", name, s.N, s.Min, s.Max, len(xs), lo, hi)
		}
		if math.Abs(s.Mean-mean) > 1e-12*mean || math.Abs(s.StdDev-sd) > 1e-12*sd {
			t.Fatalf("%s: mean/σ = %.17g/%.17g, two-pass %.17g/%.17g", name, s.Mean, s.StdDev, mean, sd)
		}
	}
}

// Property: mapping a summary affinely equals summarizing the mapped
// samples, for mean/stddev/min/max (the metrics reuse relies on).
func TestQuickMapAffineCommutes(t *testing.T) {
	f := func(seed uint64, alphaRaw, betaRaw int8) bool {
		alpha := float64(alphaRaw)/16 + 0.03125
		beta := float64(betaRaw) / 8
		r := rng.New(seed)
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = r.Normal(1, 2)
		}
		direct := NewAccumulator()
		mapped := NewAccumulator()
		for _, x := range xs {
			direct.Add(x)
			mapped.Add(alpha*x + beta)
		}
		got := direct.Summarize().MapAffine(alpha, beta)
		want := mapped.Summarize()
		tol := 1e-9 * (1 + math.Abs(want.Mean))
		return math.Abs(got.Mean-want.Mean) < tol &&
			math.Abs(got.StdDev-want.StdDev) < 1e-9*(1+want.StdDev) &&
			math.Abs(got.Min-want.Min) < tol &&
			math.Abs(got.Max-want.Max) < tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfidenceInterval(t *testing.T) {
	s := Summary{N: 10000, Mean: 0, StdDev: 1}
	ci, err := s.ConfidenceInterval(0.95)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.959964 / math.Sqrt(10000)
	if math.Abs(ci-want) > 1e-4 {
		t.Fatalf("CI = %g, want ~%g", ci, want)
	}
	if _, err := (Summary{}).ConfidenceInterval(0.95); err == nil {
		t.Fatal("CI of empty summary succeeded")
	}
	if _, err := s.ConfidenceInterval(0); err == nil {
		t.Fatal("level 0 accepted")
	}
	if _, err := s.ConfidenceInterval(1); err == nil {
		t.Fatal("level 1 accepted")
	}
}

func TestNormalQuantile(t *testing.T) {
	for _, tc := range []struct{ p, want float64 }{
		{0.5, 0}, {0.975, 1.959964}, {0.025, -1.959964}, {0.995, 2.575829},
		{0.001, -3.090232}, {0.999, 3.090232},
	} {
		if got := normalQuantile(tc.p); math.Abs(got-tc.want) > 1e-5 {
			t.Fatalf("normalQuantile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(normalQuantile(0)) || !math.IsNaN(normalQuantile(1)) {
		t.Fatal("boundary quantiles not NaN")
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// Large offset + small variance is the classic catastrophic
	// cancellation case for naive sum-of-squares.
	a := NewAccumulator()
	r := rng.New(5)
	const offset = 1e9
	for i := 0; i < 10000; i++ {
		a.Add(offset + r.Normal(0, 1))
	}
	if math.Abs(a.Variance()-1) > 0.1 {
		t.Fatalf("variance at large offset = %g, want ~1", a.Variance())
	}
}

func TestAccumulatorReset(t *testing.T) {
	a := NewAccumulator()
	a.AddAll([]float64{1, 2, 3, 4})
	a.Reset()
	if a.N() != 0 || a.Mean() != 0 || a.StdDev() != 0 {
		t.Fatal("Reset left moments behind")
	}
	if !math.IsInf(a.Min(), 1) || !math.IsInf(a.Max(), -1) {
		t.Fatal("Reset left bounds behind")
	}
	a.AddAll([]float64{10, 30, 20})
	fresh := NewAccumulator()
	fresh.AddAll([]float64{10, 30, 20})
	if got, want := a.Summarize(), fresh.Summarize(); got != want {
		t.Fatalf("post-Reset summary = %+v, want %+v", got, want)
	}
}

func TestAccumulatorReuseAfterResetZeroAlloc(t *testing.T) {
	a := NewAccumulator()
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	a.AddAll(xs) // warm
	allocs := testing.AllocsPerRun(50, func() {
		a.Reset()
		a.AddAll(xs)
		_ = a.Summarize()
	})
	if allocs != 0 {
		t.Fatalf("Reset+AddAll+Summarize allocates %.1f, want 0", allocs)
	}
}

func TestAddBlockMatchesAddAll(t *testing.T) {
	// AddBlock's lane reduction rounds differently from streaming Add,
	// but the moments must agree to near machine precision, and the
	// exact-by-construction fields (n, min, max) must match
	// bit-for-bit.
	r := rng.New(0xadd)
	for _, n := range []int{0, 1, 15, 16, 17, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(30, 3)
		}
		stream := NewAccumulator()
		stream.AddAll(xs)
		block := NewAccumulator()
		block.AddBlock(xs)

		if block.N() != stream.N() || block.Min() != stream.Min() || block.Max() != stream.Max() {
			t.Fatalf("n=%d: n/min/max diverged: %d/%g/%g vs %d/%g/%g",
				n, block.N(), block.Min(), block.Max(), stream.N(), stream.Min(), stream.Max())
		}
		if n > 0 {
			if rel := math.Abs(block.Mean()-stream.Mean()) / math.Max(1, math.Abs(stream.Mean())); rel > 1e-12 {
				t.Fatalf("n=%d: mean diverged: %g vs %g", n, block.Mean(), stream.Mean())
			}
			if rel := math.Abs(block.Variance()-stream.Variance()) / math.Max(1e-300, stream.Variance()); n > 1 && rel > 1e-9 {
				t.Fatalf("n=%d: variance diverged: %g vs %g", n, block.Variance(), stream.Variance())
			}
		}
	}
}

func TestAddBlockDeterministic(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 777)
	for i := range xs {
		xs[i] = r.StdNormal()
	}
	a := NewAccumulator()
	a.AddBlock(xs)
	b := NewAccumulator()
	b.AddBlock(xs)
	if a.Mean() != b.Mean() || a.Variance() != b.Variance() || a.Min() != b.Min() || a.Max() != b.Max() {
		t.Fatal("AddBlock is not deterministic for identical input")
	}
}

func TestAddBlockCombinesWithPriorState(t *testing.T) {
	// Chan-combining a second block onto prior state must agree with
	// a single-accumulator streaming pass to near machine precision.
	r := rng.New(7)
	first := make([]float64, 500)
	second := make([]float64, 321)
	for i := range first {
		first[i] = r.Normal(-2, 5)
	}
	for i := range second {
		second[i] = r.Normal(9, 1)
	}
	combined := NewAccumulator()
	combined.AddBlock(first)
	combined.AddBlock(second)
	stream := NewAccumulator()
	stream.AddAll(first)
	stream.AddAll(second)
	if combined.N() != stream.N() {
		t.Fatalf("n: %d vs %d", combined.N(), stream.N())
	}
	if rel := math.Abs(combined.Mean()-stream.Mean()) / math.Abs(stream.Mean()); rel > 1e-12 {
		t.Fatalf("mean: %g vs %g", combined.Mean(), stream.Mean())
	}
	if rel := math.Abs(combined.Variance()-stream.Variance()) / stream.Variance(); rel > 1e-9 {
		t.Fatalf("variance: %g vs %g", combined.Variance(), stream.Variance())
	}
}

// TestMergeMatchesAddBlock pins the contract the PDB commit relies on:
// a batch of at least blockMin samples summarized apart and merged
// onto prior state gives AddBlock's bits, whatever the prior state.
func TestMergeMatchesAddBlock(t *testing.T) {
	r := rng.New(0x3e7)
	draw := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(4, 2)
		}
		return xs
	}
	for _, prior := range []int{0, 1, 5, 16, 300} {
		for _, n := range []int{blockMin, blockMin + 1, 37, 256, 1000} {
			before, batch := draw(prior), draw(n)
			want := NewAccumulator()
			want.AddAll(before)
			got := *want
			want.AddBlock(batch)
			var part Accumulator
			part.Reset()
			part.AddBlock(batch)
			got.Merge(&part)
			if got != *want {
				t.Errorf("prior %d, batch %d: merged %+v, AddBlock %+v", prior, n, got, *want)
			}
		}
	}
}

func TestMergeEmpty(t *testing.T) {
	xs := []float64{3, -1, 4, 1, -5}
	a := NewAccumulator()
	a.AddAll(xs)
	want := *a
	// Merging an empty accumulator changes nothing.
	a.Merge(NewAccumulator())
	if *a != want {
		t.Errorf("merging an empty accumulator moved %+v to %+v", want, *a)
	}
	// Merging into an empty accumulator copies.
	b := NewAccumulator()
	b.Merge(a)
	if *b != want {
		t.Errorf("merging into an empty accumulator gave %+v, want %+v", *b, want)
	}
}

func TestAddBlockAllocFree(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	a := NewAccumulator()
	allocs := testing.AllocsPerRun(50, func() {
		a.Reset()
		a.AddBlock(xs)
	})
	if allocs != 0 {
		t.Errorf("AddBlock allocates %.1f per block, want 0", allocs)
	}
}

// TestSummaryZeroAlloc pins the per-point estimator cost the engine
// pays: recycling an accumulator over a block, summarizing it and
// mapping the summary allocate nothing.
func TestSummaryZeroAlloc(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	a := NewAccumulator()
	var sink Summary
	allocs := testing.AllocsPerRun(50, func() {
		a.Reset()
		a.AddBlock(xs)
		sink = a.Summarize().MapAffine(-2, 3)
	})
	if allocs != 0 {
		t.Errorf("Reset+AddBlock+Summarize+MapAffine allocates %.1f, want 0", allocs)
	}
	if sink.N != len(xs) {
		t.Fatalf("N = %d", sink.N)
	}
}

func BenchmarkAddBlock(b *testing.B) {
	xs := make([]float64, 1000)
	r := rng.New(3)
	for i := range xs {
		xs[i] = r.StdNormal()
	}
	a := NewAccumulator()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Reset()
		a.AddBlock(xs)
	}
}

func BenchmarkAddAll1000(b *testing.B) {
	xs := make([]float64, 1000)
	r := rng.New(3)
	for i := range xs {
		xs[i] = r.StdNormal()
	}
	a := NewAccumulator()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Reset()
		a.AddAll(xs)
	}
}
