package blackbox

import (
	"jigsaw/internal/rng"
)

// SynthBasis is the synthetic black box of Fig. 6 "based on Demand,
// but with a deterministic number of basis distributions". Parameter
// points are partitioned into classes point mod B; within a class,
// outputs at different points are exact affine images of one another
// (one basis distribution per class), while different classes consume
// independent random streams and are therefore not mappable.
//
// It drives the indexing experiments (Figs. 10 and 11), where the
// number of basis distributions must be controlled exactly.
//
// Arguments: (point_index).
type SynthBasis struct {
	// BasisCount is B, the number of distinct basis distributions.
	BasisCount int
	// Work adds that many extra normal draws per invocation,
	// emulating heavier models so that indexing cost ratios (rather
	// than raw model cost) dominate the measurement.
	Work int
}

// NewSynthBasis returns a SynthBasis with B classes.
func NewSynthBasis(b int) *SynthBasis {
	if b < 1 {
		panic("blackbox: SynthBasis requires at least one class")
	}
	return &SynthBasis{BasisCount: b}
}

// Name implements Box.
func (*SynthBasis) Name() string { return "SynthBasis" }

// Arity implements Box.
func (*SynthBasis) Arity() int { return 1 }

// Eval implements Box. Class independence is obtained by perturbing
// the generator with a class-specific reseed mixed from the current
// stream, so distinct classes see unrelated streams under the same
// seed while remaining fully deterministic.
func (s *SynthBasis) Eval(args []float64, r *rng.Rand) float64 {
	checkArity(s.Name(), s.Arity(), args)
	point := int(args[0])
	if point < 0 {
		point = -point
	}
	class := point % s.BasisCount

	// Derive a class-decorrelated stream from the seed stream.
	base := r.Uint64()
	sub := rng.New(base ^ (uint64(class)+1)*0x9e3779b97f4a7c15)
	z := sub.Normal(10, 3)
	for i := 0; i < s.Work; i++ {
		z += 1e-12 * sub.StdNormal() // negligible signal, real work
	}

	// Within-class affine signature of the point: every point in a
	// class maps onto the class representative with M(x)=αx+β.
	alpha := 1 + 0.25*float64(point%7)
	beta := 2 * float64(point%11)
	return alpha*z + beta
}

// MarkovStepBox is Fig. 6's MarkovStep: the Demand model with a
// Markovian dependency between feature release and the prior week's
// demand. The release week is endogenous — once cumulative demand
// crosses Threshold the feature ships ReleaseLag weeks later — so each
// step depends on the prior step's output. The chain wrapper in
// internal/markov evaluates it; this box form exposes a single step.
//
// State encoding (prev): the prior week's demand, negative while the
// feature is unreleased. See internal/markov for the full chain.
type MarkovStepBox struct {
	// Inner is the demand model stepped through time.
	Inner *Demand
	// Threshold is the demand level that triggers the release.
	Threshold float64
}

// NewMarkovStepBox returns the model with ad-hoc defaults.
func NewMarkovStepBox() *MarkovStepBox {
	return &MarkovStepBox{Inner: NewDemand(), Threshold: 40}
}

// Name implements Box.
func (*MarkovStepBox) Name() string { return "MarkovStep" }

// Arity implements Box. Arguments: (current_week, release_week).
func (*MarkovStepBox) Arity() int { return 2 }

// Eval implements Box: demand for the week given the (possibly not yet
// triggered) release week. A release week beyond the current week
// behaves as "not released", matching Algorithm 1's branch.
func (m *MarkovStepBox) Eval(args []float64, r *rng.Rand) float64 {
	checkArity(m.Name(), m.Arity(), args)
	return m.Inner.Eval(args, r)
}

// MarkovBranch is Fig. 6's synthetic divergence model: at each step a
// state counter is incremented by one with a predefined probability
// (the branching factor of Fig. 12). It isolates the relationship
// between discontinuity frequency and MarkovJump performance.
//
// Arguments: (prior_state).
type MarkovBranch struct {
	// Branching is the per-step increment probability.
	Branching float64
	// Work adds artificial per-step model cost (normal draws), so the
	// naive baseline's per-step cost resembles a real model's.
	Work int
}

// NewMarkovBranch returns a MarkovBranch with the given branching
// factor.
func NewMarkovBranch(branching float64) *MarkovBranch {
	if branching < 0 || branching > 1 {
		panic("blackbox: branching factor outside [0,1]")
	}
	return &MarkovBranch{Branching: branching}
}

// Name implements Box.
func (*MarkovBranch) Name() string { return "MarkovBranch" }

// Arity implements Box.
func (*MarkovBranch) Arity() int { return 1 }

// Eval implements Box: the next state given the prior state.
func (m *MarkovBranch) Eval(args []float64, r *rng.Rand) float64 {
	checkArity(m.Name(), m.Arity(), args)
	state := args[0]
	burn := 0.0
	for i := 0; i < m.Work; i++ {
		burn += r.StdNormal()
	}
	_ = burn
	if r.Bernoulli(m.Branching) {
		state++
	}
	return state
}

// sanity-check interface conformance at compile time.
var (
	_ Box = (*Demand)(nil)
	_ Box = (*Capacity)(nil)
	_ Box = (*Overload)(nil)
	_ Box = (*UserSelection)(nil)
	_ Box = (*SynthBasis)(nil)
	_ Box = (*MarkovStepBox)(nil)
	_ Box = (*MarkovBranch)(nil)
	_ Box = Func{}

	_ PointBox = (*Demand)(nil)
	_ PointBox = (*Capacity)(nil)
	_ PointBox = (*UserSelection)(nil)
	_ PointBox = UserUsage{}

	_ DrawBox = (*Demand)(nil)
	_ DrawBox = (*Capacity)(nil)
)
