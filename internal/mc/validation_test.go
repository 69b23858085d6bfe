package mc

import (
	"testing"

	"jigsaw/internal/param"
	"jigsaw/internal/rng"
)

// indicatorEval emulates an overload-style boolean column whose
// success probability is the "risk" parameter: the fingerprint
// false-positive testbed of §6.2.
var indicatorEval = EvalFunc(func(p param.Point, r *rng.Rand) float64 {
	if r.Bernoulli(p.MustGet("risk")) {
		return 1
	}
	return 0
})

func TestValidationCatchesIndicatorFalsePositive(t *testing.T) {
	// Without validation: a rare-risk point's all-zero fingerprint
	// matches the zero-risk basis and inherits its ~0 mean.
	plain := MustNew(Options{Samples: 800, Reuse: true, Workers: 1, MasterSeed: 77})
	base, _ := plain.EvaluatePoint(indicatorEval, param.Point{"risk": 0})
	if base.Summary.Mean != 0 {
		t.Fatalf("zero-risk mean = %g", base.Summary.Mean)
	}
	risky, _ := plain.EvaluatePoint(indicatorEval, param.Point{"risk": 0.05})
	if !risky.Reused {
		// The all-zero fingerprint occurs with probability .95^10 ≈ .60;
		// seed 77 is chosen to hit it. If this fires, the engine's
		// fingerprinting changed and the scenario needs a new seed.
		t.Fatalf("expected paper-mode false positive (got mean %g)", risky.Summary.Mean)
	}
	if risky.Summary.Mean != 0 {
		t.Fatalf("false positive should inherit zero mean, got %g", risky.Summary.Mean)
	}

	// With validation: the extra paired samples expose the mismatch
	// and force a full simulation.
	guarded := MustNew(Options{Samples: 800, Reuse: true, Workers: 1, MasterSeed: 77,
		KeepSamples: true, ValidationSamples: 128})
	guarded.EvaluatePoint(indicatorEval, param.Point{"risk": 0})
	gr, _ := guarded.EvaluatePoint(indicatorEval, param.Point{"risk": 0.05})
	if gr.Reused {
		t.Fatal("validation failed to reject the false positive")
	}
	if gr.Summary.Mean < 0.02 || gr.Summary.Mean > 0.09 {
		t.Fatalf("guarded mean = %g, want ~0.05", gr.Summary.Mean)
	}
}

func TestValidationAcceptsTrueMatches(t *testing.T) {
	// Genuinely affine reuse must survive validation untouched.
	e := MustNew(Options{Samples: 400, Reuse: true, Workers: 1,
		KeepSamples: true, ValidationSamples: 64})
	e.EvaluatePoint(gaussEval, param.Point{"week": 10})
	r, _ := e.EvaluatePoint(gaussEval, param.Point{"week": 30})
	if !r.Reused {
		t.Fatal("validation rejected an exact affine match")
	}
}

func TestValidationNoopWithoutSamples(t *testing.T) {
	// ValidationSamples without KeepSamples degrades to trusting the
	// match (there is nothing to validate against).
	e := MustNew(Options{Samples: 200, Reuse: true, Workers: 1, ValidationSamples: 64})
	e.EvaluatePoint(gaussEval, param.Point{"week": 10})
	r, _ := e.EvaluatePoint(gaussEval, param.Point{"week": 30})
	if !r.Reused {
		t.Fatal("sample-less validation should trust the match")
	}
}
