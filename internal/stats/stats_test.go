package stats

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"jigsaw/internal/rng"
)

func TestAccumulatorMoments(t *testing.T) {
	a := NewAccumulator(false)
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
	a := NewAccumulator(false)
	if a.Mean() != 0 || a.Variance() != 0 || a.StdDev() != 0 {
		t.Fatal("empty accumulator moments non-zero")
	}
	if !math.IsInf(a.Min(), 1) || !math.IsInf(a.Max(), -1) {
		t.Fatal("empty accumulator bounds wrong")
	}
}

func TestAccumulatorSingleSample(t *testing.T) {
	a := NewAccumulator(true)
	a.Add(3)
	if a.Variance() != 0 {
		t.Fatal("variance of single sample != 0")
	}
	if q := a.Summarize(0).Quantiles[0.5]; q != 3 {
		t.Fatalf("median of single sample = %g", q)
	}
}

func TestQuantiles(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.25, 25.75}, {0.75, 75.25},
	} {
		if got := quantileSorted(sorted, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("quantileSorted(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestQuantileAfterInterleavedAdds(t *testing.T) {
	a := NewAccumulator(true)
	a.AddAll([]float64{5, 1, 3})
	if q := a.Summarize(0).Quantiles[0.5]; q != 3 {
		t.Fatalf("median = %g", q)
	}
	a.Add(0)
	a.Add(10)
	if q := a.Summarize(0).Quantiles[0.5]; q != 3 {
		t.Fatalf("median after re-add = %g", q)
	}
}

func TestSummarize(t *testing.T) {
	a := NewAccumulator(true)
	for i := 0; i < 1000; i++ {
		a.Add(float64(i % 10))
	}
	s := a.Summarize(10)
	if s.N != 1000 {
		t.Fatalf("N = %d", s.N)
	}
	if math.Abs(s.Mean-4.5) > 1e-9 {
		t.Fatalf("Mean = %g", s.Mean)
	}
	if s.Hist == nil || s.Hist.Total() != 1000 {
		t.Fatal("histogram missing or short")
	}
	if len(s.Quantiles) != len(DefaultQuantiles) {
		t.Fatalf("quantiles = %v", s.Quantiles)
	}
	// bins <= 0 omits the histogram.
	if got := a.Summarize(0); got.Hist != nil {
		t.Fatal("bins=0 still produced a histogram")
	}
	// Without samples retained, no quantiles or histogram.
	b := NewAccumulator(false)
	b.Add(1)
	if got := b.Summarize(10); got.Hist != nil || got.Quantiles != nil {
		t.Fatal("sample-free summary has distribution detail")
	}
}

func TestMapAffinePositiveAlpha(t *testing.T) {
	a := NewAccumulator(true)
	r := rng.New(1)
	for i := 0; i < 20000; i++ {
		a.Add(r.Normal(2, 3))
	}
	s := a.Summarize(32)
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
	if math.Abs(m.Quantiles[0.5]-(2*s.Quantiles[0.5]+5)) > 1e-12 {
		t.Fatal("mapped median wrong")
	}
}

func TestMapAffineNegativeAlpha(t *testing.T) {
	a := NewAccumulator(true)
	for i := 1; i <= 100; i++ {
		a.Add(float64(i))
	}
	s := a.Summarize(10)
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
	// Quantile q of X becomes quantile 1-q of -X.
	if math.Abs(m.Quantiles[0.95]+s.Quantiles[0.05]) > 1e-12 {
		t.Fatal("quantile reflection wrong")
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
		direct := NewAccumulator(false)
		mapped := NewAccumulator(false)
		for _, x := range xs {
			direct.Add(x)
			mapped.Add(alpha*x + beta)
		}
		got := direct.Summarize(0).MapAffine(alpha, beta)
		want := mapped.Summarize(0)
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
	a := NewAccumulator(false)
	r := rng.New(5)
	const offset = 1e9
	for i := 0; i < 10000; i++ {
		a.Add(offset + r.Normal(0, 1))
	}
	if math.Abs(a.Variance()-1) > 0.1 {
		t.Fatalf("variance at large offset = %g, want ~1", a.Variance())
	}
}

func TestQuantileDoesNotReorderSamples(t *testing.T) {
	a := NewAccumulator(true)
	in := []float64{9, 1, 7, 3, 5}
	a.AddAll(in)
	a.Summarize(0)
	got := a.Samples()
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("Summarize reordered Samples(): %v", got)
		}
	}
	// And the quantiles are still right.
	if med := a.Summarize(0).Quantiles[0.5]; med != 5 {
		t.Fatalf("median = %g", med)
	}
}

func TestAccumulatorReset(t *testing.T) {
	a := NewAccumulator(true)
	a.AddAll([]float64{1, 2, 3, 4})
	a.Summarize(0)
	a.Reset(true)
	if a.N() != 0 || a.Mean() != 0 || a.StdDev() != 0 {
		t.Fatal("Reset left moments behind")
	}
	if !math.IsInf(a.Min(), 1) || !math.IsInf(a.Max(), -1) {
		t.Fatal("Reset left bounds behind")
	}
	if len(a.Samples()) != 0 {
		t.Fatal("Reset left samples behind")
	}
	a.AddAll([]float64{10, 30, 20})
	if med := a.Summarize(0).Quantiles[0.5]; med != 20 {
		t.Fatalf("post-Reset median = %g", med)
	}
	// Reset to keep=false must stop retaining.
	a.Reset(false)
	a.Add(1)
	if a.Samples() != nil && len(a.Samples()) != 0 {
		t.Fatal("Reset(false) still retains samples")
	}
}

func TestSummarizeMatchesQuantile(t *testing.T) {
	a := NewAccumulator(true)
	r := rng.New(42)
	for i := 0; i < 500; i++ {
		a.Add(r.Normal(10, 2))
	}
	s := a.Summarize(0)
	sorted := slices.Clone(a.Samples())
	slices.Sort(sorted)
	for _, q := range DefaultQuantiles {
		if want := quantileSorted(sorted, q); s.Quantiles[q] != want {
			t.Fatalf("Summarize q=%g: %g != quantileSorted %g", q, s.Quantiles[q], want)
		}
	}
}

func TestAccumulatorReuseAfterResetZeroAlloc(t *testing.T) {
	a := NewAccumulator(false)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	a.AddAll(xs) // warm
	allocs := testing.AllocsPerRun(50, func() {
		a.Reset(false)
		a.AddAll(xs)
		_ = a.Summarize(0)
	})
	if allocs != 0 {
		t.Fatalf("Reset+AddAll+Summarize allocates %.1f, want 0", allocs)
	}
}

func TestAddBlockMatchesAddAll(t *testing.T) {
	// AddBlock's lane reduction rounds differently from streaming Add,
	// but the moments must agree to near machine precision, and the
	// exact-by-construction fields (n, min, max, retained samples)
	// must match bit-for-bit.
	r := rng.New(0xadd)
	for _, n := range []int{0, 1, 15, 16, 17, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(30, 3)
		}
		stream := NewAccumulator(true)
		stream.AddAll(xs)
		block := NewAccumulator(true)
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
		if !reflect.DeepEqual(block.Samples(), stream.Samples()) {
			t.Fatalf("n=%d: retained samples diverged", n)
		}
	}
}

func TestAddBlockDeterministic(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 777)
	for i := range xs {
		xs[i] = r.StdNormal()
	}
	a := NewAccumulator(false)
	a.AddBlock(xs)
	b := NewAccumulator(false)
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
	combined := NewAccumulator(false)
	combined.AddBlock(first)
	combined.AddBlock(second)
	stream := NewAccumulator(false)
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

func TestAddBlockAllocFree(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	a := NewAccumulator(false)
	allocs := testing.AllocsPerRun(50, func() {
		a.Reset(false)
		a.AddBlock(xs)
	})
	if allocs != 0 {
		t.Errorf("AddBlock allocates %.1f per block, want 0", allocs)
	}
}

func BenchmarkAddBlock(b *testing.B) {
	xs := make([]float64, 1000)
	r := rng.New(3)
	for i := range xs {
		xs[i] = r.StdNormal()
	}
	a := NewAccumulator(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Reset(false)
		a.AddBlock(xs)
	}
}

func BenchmarkAddAll1000(b *testing.B) {
	xs := make([]float64, 1000)
	r := rng.New(3)
	for i := range xs {
		xs[i] = r.StdNormal()
	}
	a := NewAccumulator(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Reset(false)
		a.AddAll(xs)
	}
}
