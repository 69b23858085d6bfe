// Package markov implements Jigsaw's Markovian-jump machinery (§4 of
// the paper): chains of dependent model steps, automatically
// synthesized non-Markovian estimator functions (§4.2), and the
// MarkovJump algorithm (Algorithm 4) that skips over the regions of a
// chain where the estimator remains a valid stand-in.
package markov

import (
	"fmt"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/core"
	"jigsaw/internal/rng"
)

// State is one chain instance's state vector. Chains keep it small (1
// or 2 components in every paper model).
type State []float64

// Clone returns an independent copy.
func (s State) Clone() State { return append(State(nil), s...) }

// Chain describes a Markov process evaluated in discrete steps
// (§4.1): the state at step t is a stochastic function of the state at
// step t−1. Each Monte Carlo instance evolves independently; the
// engine manages n instances and derives per-(instance, step) seeds.
type Chain interface {
	// Initial returns the state at step 0.
	Initial() State
	// Step computes the state at step given the state at step−1,
	// drawing all randomness from r.
	Step(step int, prev State, r *rng.Rand) State
	// Output extracts the scalar simulation output from a state; the
	// quantity fingerprints and estimates are computed over.
	Output(s State) float64
	// ApplyMapping applies a fingerprint mapping to a state. Which
	// components a mapping acts on is model knowledge: a demand value
	// is mapped, a release-week marker is not.
	ApplyMapping(m core.Linear, s State) State
}

// FuncChain adapts closures to the Chain interface. For scalar chains
// leave ApplyFn nil: the mapping is applied to the single component.
type FuncChain struct {
	// InitialState is the step-0 state.
	InitialState State
	// StepFn advances one instance by one step.
	StepFn func(step int, prev State, r *rng.Rand) State
	// OutputFn extracts the scalar output; nil means component 0.
	OutputFn func(s State) float64
	// ApplyFn applies a mapping to the state; nil maps component 0.
	ApplyFn func(m core.Linear, s State) State
}

// Initial implements Chain.
func (c *FuncChain) Initial() State { return c.InitialState.Clone() }

// Step implements Chain.
func (c *FuncChain) Step(step int, prev State, r *rng.Rand) State {
	return c.StepFn(step, prev, r)
}

// Output implements Chain.
func (c *FuncChain) Output(s State) float64 {
	if c.OutputFn != nil {
		return c.OutputFn(s)
	}
	return s[0]
}

// ApplyMapping implements Chain.
func (c *FuncChain) ApplyMapping(m core.Linear, s State) State {
	if c.ApplyFn != nil {
		return c.ApplyFn(m, s)
	}
	out := s.Clone()
	out[0] = m.Apply(out[0])
	return out
}

// BranchChain wraps the MarkovBranch synthetic model (Fig. 6) as a
// scalar chain: a counter incremented with the configured branching
// probability at each step. It drives Fig. 12.
type BranchChain struct {
	// Box is the underlying branch model.
	Box *blackbox.MarkovBranch
}

// NewBranchChain returns a chain with the given branching factor.
func NewBranchChain(branching float64) *BranchChain {
	return &BranchChain{Box: blackbox.NewMarkovBranch(branching)}
}

// Initial implements Chain.
func (*BranchChain) Initial() State { return State{0} }

// Step implements Chain.
func (b *BranchChain) Step(_ int, prev State, r *rng.Rand) State {
	return State{b.Box.Eval([]float64{prev[0]}, r)}
}

// Output implements Chain.
func (*BranchChain) Output(s State) float64 { return s[0] }

// ApplyMapping implements Chain.
func (*BranchChain) ApplyMapping(m core.Linear, s State) State {
	return State{m.Apply(s[0])}
}

// unreleasedSentinel marks a feature release that has not been
// triggered yet; any week comparison treats it as "far future".
const unreleasedSentinel = 1 << 20

// DemandReleaseChain is the cyclically dependent pair of models from
// Fig. 5 / §4: week-by-week demand drives the feature release week,
// and the release week feeds back into subsequent demand. State is
// (demand, release_week); the Markovian dependency is active only in
// the steps around the release trigger — exactly the "infrequent
// discontinuities" the estimator exploits.
type DemandReleaseChain struct {
	// Box is the demand step model.
	Box *blackbox.MarkovStepBox
	// ReleaseLag is how many weeks after the demand trigger the
	// feature ships.
	ReleaseLag int
}

// NewDemandReleaseChain returns the Fig. 5 chain with ad-hoc defaults.
func NewDemandReleaseChain() *DemandReleaseChain {
	return &DemandReleaseChain{Box: blackbox.NewMarkovStepBox(), ReleaseLag: 4}
}

// Initial implements Chain: zero demand, feature unreleased.
func (*DemandReleaseChain) Initial() State { return State{0, unreleasedSentinel} }

// Step implements Chain: demand for the week given the prior release
// state; the release triggers once demand crosses the box threshold.
func (c *DemandReleaseChain) Step(step int, prev State, r *rng.Rand) State {
	release := prev[1]
	demand := c.Box.Eval([]float64{float64(step), release}, r)
	if release == unreleasedSentinel && demand > c.Box.Threshold {
		release = float64(step + c.ReleaseLag)
	}
	return State{demand, release}
}

// Output implements Chain: the demand component.
func (*DemandReleaseChain) Output(s State) float64 { return s[0] }

// ApplyMapping implements Chain: demand is mapped; the release marker
// is discrete state and must not be perturbed by a demand-space
// mapping.
func (*DemandReleaseChain) ApplyMapping(m core.Linear, s State) State {
	return State{m.Apply(s[0]), s[1]}
}

// EventChain models the paper's motivating Markov structure directly:
// "(1) infrequent, and (2) often closely correlated (3) discontinuities
// in (4) an otherwise non-Markovian process" (§4). A shared event
// schedule — one Bernoulli(Rate) draw per step, common to every
// instance — bumps all instances' counters together. Because the
// discontinuities are perfectly correlated across instances, the
// synthesized estimator plus a shift mapping reconstructs state
// exactly, making this the chain on which MarkovJump is lossless
// end-to-end (see TestJumpExactForEventChain).
type EventChain struct {
	// Rate is the per-step event probability.
	Rate float64
	// EventSeed determines the shared event schedule.
	EventSeed uint64
	// Magnitude is the state bump applied by each event.
	Magnitude float64
}

// NewEventChain returns an event chain with unit bumps.
func NewEventChain(rate float64, seed uint64) *EventChain {
	return &EventChain{Rate: rate, EventSeed: seed, Magnitude: 1}
}

// EventAt reports whether the shared schedule fires at the step. It is
// a pure function of (EventSeed, step), so every instance—and the
// estimator—observes the same schedule.
func (c *EventChain) EventAt(step int) bool {
	z := stepSeed(c.EventSeed, 0, step)
	return float64(z>>11)/(1<<53) < c.Rate
}

// Initial implements Chain.
func (*EventChain) Initial() State { return State{0} }

// Step implements Chain.
func (c *EventChain) Step(step int, prev State, _ *rng.Rand) State {
	if c.EventAt(step) {
		return State{prev[0] + c.Magnitude}
	}
	return State{prev[0]}
}

// Output implements Chain.
func (*EventChain) Output(s State) float64 { return s[0] }

// ApplyMapping implements Chain.
func (*EventChain) ApplyMapping(m core.Linear, s State) State {
	return State{m.Apply(s[0])}
}

// stepSeed derives the deterministic seed for (instance, step). The
// estimator and the true chain evaluate any given (instance, step)
// with the same seed — the §3.1 requirement that makes their
// fingerprints comparable.
func stepSeed(master uint64, instance, step int) uint64 {
	z := master + 0x9e3779b97f4a7c15*uint64(instance+1) + 0x517cc1b727220a95*uint64(step+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// validateState reports malformed chain output as an error: a chain
// returning a wrong-dimension state is an implementation bug that must
// not be silently propagated into estimates.
func validateState(got, want State, stage string) error {
	if len(got) != len(want) {
		return fmt.Errorf("markov: %s returned state dim %d, want %d", stage, len(got), len(want))
	}
	return nil
}
