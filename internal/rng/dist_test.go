package rng

import (
	"math"
	"testing"
	"testing/quick"
)

const momentSamples = 120000

func moments(t *testing.T, sample func(*Rand) float64) (mean, variance float64) {
	t.Helper()
	r := New(31337)
	var sum, sumsq float64
	for i := 0; i < momentSamples; i++ {
		x := sample(r)
		sum += x
		sumsq += x * x
	}
	mean = sum / momentSamples
	variance = sumsq/momentSamples - mean*mean
	return mean, variance
}

func TestStdNormalMoments(t *testing.T) {
	mean, variance := moments(t, func(r *Rand) float64 { return r.StdNormal() })
	if math.Abs(mean) > 0.02 {
		t.Fatalf("StdNormal mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("StdNormal variance = %g", variance)
	}
}

func TestNormalVarMatchesVariance(t *testing.T) {
	mean, variance := moments(t, func(r *Rand) float64 { return r.NormalVar(5, 9) })
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("NormalVar mean = %g", mean)
	}
	if math.Abs(variance-9) > 0.25 {
		t.Fatalf("NormalVar variance = %g", variance)
	}
}

func TestNormalNegativeSigmaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Normal with negative sigma did not panic")
		}
	}()
	New(1).Normal(0, -1)
}

func TestNormalZeroSigmaIsDegenerate(t *testing.T) {
	r := New(9)
	for i := 0; i < 10; i++ {
		if got := r.Normal(4.5, 0); got != 4.5 {
			t.Fatalf("Normal(4.5, 0) = %g", got)
		}
	}
}

func TestExponentialMoments(t *testing.T) {
	const rate = 0.25
	mean, variance := moments(t, func(r *Rand) float64 { return r.Exponential(rate) })
	if math.Abs(mean-4) > 0.08 {
		t.Fatalf("Exponential mean = %g, want ~4", mean)
	}
	if math.Abs(variance-16) > 1.0 {
		t.Fatalf("Exponential variance = %g, want ~16", variance)
	}
}

func TestExponentialPositive(t *testing.T) {
	r := New(77)
	for i := 0; i < 100000; i++ {
		if x := r.Exponential(2); x < 0 {
			t.Fatalf("Exponential produced negative sample %g", x)
		}
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(0) did not panic")
		}
	}()
	New(1).Exponential(0)
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(15)
	const p, n = 0.3, 200000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-p) > 0.005 {
		t.Fatalf("Bernoulli(%g) frequency = %g", p, freq)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := New(4)
	for i := 0; i < 100000; i++ {
		x := r.Uniform(-2, 5)
		if x < -2 || x >= 5 {
			t.Fatalf("Uniform(-2,5) = %g out of range", x)
		}
	}
}

func TestUniformPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform(5,-2) did not panic")
		}
	}()
	New(1).Uniform(5, -2)
}

func TestUniformMoments(t *testing.T) {
	mean, variance := moments(t, func(r *Rand) float64 { return r.Uniform(0, 10) })
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("Uniform mean = %g", mean)
	}
	if math.Abs(variance-100.0/12) > 0.2 {
		t.Fatalf("Uniform variance = %g", variance)
	}
}

func TestLogNormalMoments(t *testing.T) {
	const mu, sigma = 0.5, 0.4
	mean, _ := moments(t, func(r *Rand) float64 { return r.LogNormal(mu, sigma) })
	want := math.Exp(mu + sigma*sigma/2)
	if math.Abs(mean-want) > 0.05 {
		t.Fatalf("LogNormal mean = %g, want ~%g", mean, want)
	}
}

func TestBinomialMoments(t *testing.T) {
	const n, p = 20, 0.35
	mean, variance := moments(t, func(r *Rand) float64 { return float64(r.Binomial(n, p)) })
	if math.Abs(mean-n*p) > 0.05 {
		t.Fatalf("Binomial mean = %g", mean)
	}
	if math.Abs(variance-n*p*(1-p)) > 0.15 {
		t.Fatalf("Binomial variance = %g", variance)
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(1)
	if r.Binomial(0, 0.5) != 0 {
		t.Fatal("Binomial(0, .5) != 0")
	}
	if r.Binomial(10, 0) != 0 {
		t.Fatal("Binomial(10, 0) != 0")
	}
	if r.Binomial(10, 1) != 10 {
		t.Fatal("Binomial(10, 1) != 10")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Binomial(-1, .5) did not panic")
		}
	}()
	r.Binomial(-1, 0.5)
}

func TestParetoSupport(t *testing.T) {
	r := New(3)
	for i := 0; i < 50000; i++ {
		if x := r.Pareto(2, 3); x < 2 {
			t.Fatalf("Pareto(2,3) = %g below xm", x)
		}
	}
}

func TestParetoMean(t *testing.T) {
	const xm, alpha = 1.0, 3.0
	mean, _ := moments(t, func(r *Rand) float64 { return r.Pareto(xm, alpha) })
	want := alpha * xm / (alpha - 1)
	if math.Abs(mean-want) > 0.05 {
		t.Fatalf("Pareto mean = %g, want ~%g", mean, want)
	}
}

func TestParetoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pareto(0,1) did not panic")
		}
	}()
	New(1).Pareto(0, 1)
}

// Property: every sampler is a pure function of the seed — same seed,
// same draw. This is the foundational requirement for fingerprinting
// (§3.1 of the paper).
func TestQuickSamplersDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		return a.Normal(1, 2) == b.Normal(1, 2) &&
			a.Exponential(0.5) == b.Exponential(0.5) &&
			a.Binomial(12, 0.4) == b.Binomial(12, 0.4) &&
			a.LogNormal(0, 1) == b.LogNormal(0, 1) &&
			a.Uniform(0, 9) == b.Uniform(0, 9) &&
			a.Pareto(1, 2) == b.Pareto(1, 2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Normal(mu, sigma) with a fixed seed is an exact affine
// transform of StdNormal with the same seed. This is precisely why the
// paper's linear mapping class captures parameterized Gaussian models.
func TestQuickNormalIsAffineInParams(t *testing.T) {
	f := func(seed uint64, muRaw, sigmaRaw int16) bool {
		mu := float64(muRaw) / 100
		sigma := math.Abs(float64(sigmaRaw)) / 100
		z := New(seed).StdNormal()
		x := New(seed).Normal(mu, sigma)
		return math.Abs(x-(mu+sigma*z)) <= 1e-12*(1+math.Abs(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
