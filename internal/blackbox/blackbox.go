// Package blackbox implements stochastic black-box functions
// (VG-functions) as Jigsaw consumes them, together with the concrete
// model suite of Fig. 6 in the paper: Demand (Algorithm 1), Capacity,
// Overload, UserSelection, SynthBasis, MarkovStep and MarkovBranch.
//
// A black box is a pure function of (arguments, generator): all of its
// randomness must come from the supplied generator. That discipline —
// the paper's "replace all sources of randomness with invocations of a
// pseudorandom generator seeded by σ" (§3.1) — is what makes
// fingerprinting sound, so the interface enforces it structurally by
// not exposing any ambient randomness.
package blackbox

import (
	"errors"
	"fmt"

	"jigsaw/internal/rng"
)

// Box is a stochastic black-box function producing a single value per
// invocation (the paper's simplified notion of VG-functions; footnote
// 2). Implementations must be deterministic given (args, generator
// state) and must not retain the generator.
type Box interface {
	// Name identifies the box in queries and diagnostics.
	Name() string
	// Arity is the number of arguments Eval expects.
	Arity() int
	// Eval draws one sample given the argument vector. It must panic
	// only on arity violations (an engine bug); model-domain issues
	// are expected to saturate or clamp, as real enterprise models do.
	Eval(args []float64, r *rng.Rand) float64
}

// Func adapts a plain function to the Box interface.
type Func struct {
	// FuncName is the registered name.
	FuncName string
	// NArgs is the expected argument count.
	NArgs int
	// Fn is the evaluation function.
	Fn func(args []float64, r *rng.Rand) float64
}

// Name implements Box.
func (f Func) Name() string { return f.FuncName }

// Arity implements Box.
func (f Func) Arity() int { return f.NArgs }

// Eval implements Box.
func (f Func) Eval(args []float64, r *rng.Rand) float64 {
	checkArity(f.FuncName, f.NArgs, args)
	return f.Fn(args, r)
}

// checkArity panics on argument-count mismatch; binding bugs must not
// be silently absorbed into model output.
func checkArity(name string, want int, args []float64) {
	if len(args) != want {
		panic(fmt.Sprintf("blackbox: %s expects %d args, got %d", name, want, len(args)))
	}
}

// Registry maps names to boxes; the SQL executor resolves model calls
// (e.g. DemandModel(@current_week, @feature_release)) through one.
type Registry struct {
	boxes map[string]Box
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{boxes: make(map[string]Box)}
}

// ErrDuplicateBox is returned when registering a name twice.
var ErrDuplicateBox = errors.New("blackbox: box already registered")

// ErrUnknownBox is returned when resolving an unregistered name.
var ErrUnknownBox = errors.New("blackbox: unknown box")

// Register adds a box under its own name.
func (reg *Registry) Register(b Box) error {
	name := b.Name()
	if name == "" {
		return errors.New("blackbox: box with empty name")
	}
	if _, dup := reg.boxes[name]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateBox, name)
	}
	reg.boxes[name] = b
	return nil
}

// MustRegister is Register, panicking on error; for initialization.
func (reg *Registry) MustRegister(b Box) {
	if err := reg.Register(b); err != nil {
		panic(err)
	}
}

// Lookup resolves a name.
func (reg *Registry) Lookup(name string) (Box, error) {
	b, ok := reg.boxes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownBox, name)
	}
	return b, nil
}
