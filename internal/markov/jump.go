package markov

import (
	"errors"
	"fmt"

	"jigsaw/internal/core"
	"jigsaw/internal/rng"
)

// JumpOptions configures Evaluate and Jump.
type JumpOptions struct {
	// Instances is n, the number of Monte Carlo instances.
	Instances int
	// FingerprintLen is m, the number of instances used for
	// fingerprint comparison (m ≤ n).
	FingerprintLen int
	// MasterSeed derives all per-(instance, step) seeds.
	MasterSeed uint64
}

// withDefaults fills in unset fields after rejecting values no default
// repairs, as mc.Options does: negative counts, which would panic
// deep in the evaluation.
func (o JumpOptions) withDefaults() (JumpOptions, error) {
	switch {
	case o.Instances < 0:
		return o, fmt.Errorf("markov: negative Instances %d", o.Instances)
	case o.FingerprintLen < 0:
		return o, fmt.Errorf("markov: negative FingerprintLen %d", o.FingerprintLen)
	}
	if o.Instances == 0 {
		o.Instances = 1000
	}
	if o.FingerprintLen == 0 {
		o.FingerprintLen = 10
	}
	return o, nil
}

// JumpStats records the work performed, in chain-step invocations —
// the currency of Fig. 12 (ms/step is proportional to invocations per
// step for a fixed model).
type JumpStats struct {
	// FingerprintSteps counts Step calls advancing fingerprint
	// instances through the walked region (m per walked step).
	FingerprintSteps int
	// EstimatorEvals counts Step calls made to evaluate the
	// synthesized estimator (checkpoint comparisons and binary
	// search).
	EstimatorEvals int
	// RebuildEvals counts Step calls regenerating full state through
	// the estimator at a validated step.
	RebuildEvals int
	// FullStepEvals counts Step calls advancing the full instance set
	// one step at a time through estimator-invalid regions.
	FullStepEvals int
	// Rebuilds is the number of estimator-based jumps taken.
	Rebuilds int
	// Regions is the number of estimator regions consumed (estimator
	// re-synthesis count).
	Regions int
}

// TotalStepInvocations sums every chain Step call.
func (s JumpStats) TotalStepInvocations() int {
	return s.FingerprintSteps + s.EstimatorEvals + s.RebuildEvals + s.FullStepEvals
}

// NaiveEvaluate advances all n instances through every step — the
// "Naive" baseline of Fig. 12. Each (instance, step) uses the same
// seed Jump would use, so results are directly comparable.
func NaiveEvaluate(c Chain, target int, opts JumpOptions) ([]State, JumpStats, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, JumpStats{}, err
	}
	if target < 0 {
		return nil, JumpStats{}, errors.New("markov: negative target step")
	}
	states := initialStates(c, opts.Instances)
	var st JumpStats
	var r rng.Rand
	for s := 1; s <= target; s++ {
		for i := range states {
			next, err := seededStep(c, &r, opts.MasterSeed, i, s, states[i])
			if err != nil {
				return nil, JumpStats{}, err
			}
			states[i] = next
			st.FullStepEvals++
		}
	}
	return states, st, nil
}

// Jump implements Algorithm 4 (MarkovJump). It maintains the full
// instance set only at "rebuild" points; between them it advances just
// the m fingerprint instances, repeatedly comparing their fingerprint
// against a synthesized non-Markovian estimator (the chain's step
// function with its input state frozen at the last rebuild — §4.2).
// Checkpoint spacing doubles while the estimator stays mappable; on a
// mismatch a binary search locates the last mappable step, the full
// state is regenerated there through the estimator and the validated
// mapping, and the process repeats.
//
// Validity is established on the fingerprint instances and — as in the
// paper — extrapolated to all n instances; the false-positive
// probability decays with m. For chains whose estimator is exact
// within a region (the paper's event-style models), Jump's final
// states equal NaiveEvaluate's exactly.
func Jump(c Chain, target int, opts JumpOptions) ([]State, JumpStats, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, JumpStats{}, err
	}
	if target < 0 {
		return nil, JumpStats{}, errors.New("markov: negative target step")
	}
	if opts.FingerprintLen > opts.Instances {
		return nil, JumpStats{}, errors.New("markov: fingerprint length exceeds instance count")
	}
	m := opts.FingerprintLen
	states := initialStates(c, opts.Instances)
	var st JumpStats
	var r rng.Rand

	base := 0
	for base < target {
		st.Regions++
		// Freeze the estimator at the current rebuild point (§4.2).
		frozen := cloneStates(states)

		// est evaluates the synthesized estimator for instance i at
		// step s: one chain step from the frozen state, using the same
		// seed the true chain would use at (i, s).
		est := func(i, s int) (State, error) {
			st.EstimatorEvals++
			return seededStep(c, &r, opts.MasterSeed, i, s, frozen[i])
		}

		// Walk the fingerprint instances forward, recording the true
		// fingerprint at every step for checkpoint and binary-search
		// comparisons.
		fpStates := cloneStates(states[:m])
		trueFp := map[int]core.Fingerprint{}
		advanceTo := func(s int) error { // advance fpStates up to step s
			for cur := lastRecorded(trueFp, base); cur < s; cur++ {
				next := cur + 1
				fp := make(core.Fingerprint, m)
				for i := 0; i < m; i++ {
					ns, err := seededStep(c, &r, opts.MasterSeed, i, next, fpStates[i])
					if err != nil {
						return err
					}
					fpStates[i] = ns
					fp[i] = c.Output(ns)
					st.FingerprintSteps++
				}
				trueFp[next] = fp
			}
			return nil
		}
		// tryStep compares the estimator's fingerprint at step s with
		// the true one.
		tryStep := func(s int) (core.Linear, bool, error) {
			fp := make(core.Fingerprint, m)
			for i := 0; i < m; i++ {
				es, err := est(i, s)
				if err != nil {
					return core.Linear{}, false, err
				}
				fp[i] = c.Output(es)
			}
			mapping, ok := core.LinearClass{}.Find(fp, trueFp[s])
			return mapping, ok, nil
		}

		lastValid := base
		var lastMapping core.Linear
		gap := 1
		s := base
		finished := false
		for {
			s += gap
			if s > target {
				s = target
			}
			if err := advanceTo(s); err != nil {
				return nil, JumpStats{}, err
			}
			mapping, ok, err := tryStep(s)
			if err != nil {
				return nil, JumpStats{}, err
			}
			if ok {
				lastValid, lastMapping = s, mapping
				if s >= target {
					// Estimator valid through the target: rebuild
					// there and finish (Algorithm 4, lines 6–7).
					if states, err = rebuild(c, est, mapping, frozen, s, &st); err != nil {
						return nil, JumpStats{}, err
					}
					base = s
					finished = true
					break
				}
				gap *= 2
				continue
			}
			// Mismatch at s: backtrack to the last mappable step
			// (Algorithm 4, line 11).
			v, vm, found, err := binarySearch(lastValid, s, lastMapping, lastValid > base, tryStep)
			if err != nil {
				return nil, JumpStats{}, err
			}
			if !found {
				// Estimator invalid immediately: advance the full
				// instance set one true step (line 12).
				next := base + 1
				// Keep the fingerprint history aligned.
				if err := advanceTo(next); err != nil {
					return nil, JumpStats{}, err
				}
				for i := range states {
					ns, err := seededStep(c, &r, opts.MasterSeed, i, next, states[i])
					if err != nil {
						return nil, JumpStats{}, err
					}
					states[i] = ns
					st.FullStepEvals++
				}
				base = next
			} else {
				if states, err = rebuild(c, est, vm, frozen, v, &st); err != nil {
					return nil, JumpStats{}, err
				}
				base = v
			}
			break
		}
		if finished {
			break
		}
	}
	return states, st, nil
}

// seededStep advances instance i from prev to step s, seeded as both
// entry points seed (i, s), and rejects a state whose dimension
// differs from prev's.
func seededStep(c Chain, r *rng.Rand, master uint64, i, s int, prev State) (State, error) {
	r.Seed(stepSeed(master, i, s))
	next := c.Step(s, prev, r)
	return next, validateState(next, prev, "Step")
}

// rebuild regenerates the full instance set at step s through the
// estimator and the validated mapping (Algorithm 4, line 13:
// state ← M(Fest(state))).
func rebuild(c Chain, est func(i, s int) (State, error), m core.Linear, frozen []State, s int, st *JumpStats) ([]State, error) {
	out := make([]State, len(frozen))
	for i := range frozen {
		es, err := est(i, s)
		if err != nil {
			return nil, err
		}
		st.RebuildEvals++
		st.EstimatorEvals-- // est() already counted it; reclassify
		out[i] = c.ApplyMapping(m, es)
		if err := validateState(out[i], es, "ApplyMapping"); err != nil {
			return nil, err
		}
	}
	st.Rebuilds++
	return out, nil
}

// binarySearch finds the largest step in [lo, hi) for which tryStep
// yields a mapping, given that lo is known valid and hi is known
// invalid. loFound reports whether lo has a mapping, loMap; it is
// false when lo is the region base. found reports whether the
// returned step has a mapping, bestMap. A tryStep error ends the
// search.
func binarySearch(lo, hi int, loMap core.Linear, loFound bool, tryStep func(int) (core.Linear, bool, error)) (step int, bestMap core.Linear, found bool, err error) {
	bestMap, found = loMap, loFound
	for lo+1 < hi {
		mid := (lo + hi) / 2
		mapping, ok, err := tryStep(mid)
		if err != nil {
			return 0, core.Linear{}, false, err
		}
		if ok {
			lo, bestMap, found = mid, mapping, true
		} else {
			hi = mid
		}
	}
	return lo, bestMap, found, nil
}

// lastRecorded returns the highest step with a recorded fingerprint,
// or base when none is recorded yet.
func lastRecorded(m map[int]core.Fingerprint, base int) int {
	last := base
	for s := range m {
		if s > last {
			last = s
		}
	}
	return last
}

func initialStates(c Chain, n int) []State {
	states := make([]State, n)
	for i := range states {
		states[i] = c.Initial()
	}
	return states
}

func cloneStates(in []State) []State {
	out := make([]State, len(in))
	for i := range in {
		out[i] = in[i].Clone()
	}
	return out
}

// Outputs extracts the scalar outputs of a state set.
func Outputs(c Chain, states []State) []float64 {
	out := make([]float64, len(states))
	for i, s := range states {
		out[i] = c.Output(s)
	}
	return out
}
