// Package param models Jigsaw's parameter variables and parameter
// spaces (§2.2 of the paper).
//
// A scenario declares parameters with DECLARE PARAMETER statements:
//
//	DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
//	DECLARE PARAMETER @feature_release AS SET (12,36,44);
//	DECLARE PARAMETER @release_week AS CHAIN release_week
//	    FROM @current_week : @current_week - 1 INITIAL VALUE 52;
//
// Each parameter has a discrete, finite domain (footnote 1 of the
// paper: a discrete-finite domain is assumed). A Space is the cartesian
// product of the declared domains; the Parameter Enumerator (Fig. 3)
// walks its points by index, each as a value row (Space.Values).
package param

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates parameter declaration forms.
type Kind int

const (
	// KindRange is RANGE lo TO hi STEP BY step.
	KindRange Kind = iota
	// KindSet is SET (v1, v2, ...).
	KindSet
	// KindChain is CHAIN col FROM @driver : offset INITIAL VALUE v —
	// the Markov chaining declaration of Fig. 5. Chain parameters are
	// not enumerated; their value at step t is the chained model output
	// at the prior step.
	KindChain
)

func (k Kind) String() string {
	switch k {
	case KindRange:
		return "RANGE"
	case KindSet:
		return "SET"
	case KindChain:
		return "CHAIN"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Decl is one declared parameter.
type Decl struct {
	// Name is the parameter name without the leading '@'.
	Name string
	Kind Kind

	// Range parameters.
	Lo, Hi, Step float64

	// Set parameters.
	Values []float64

	// Chain parameters (§4, Fig. 5).
	ChainColumn  string  // column of the results table fed back into the chain
	DriverName   string  // parameter that indexes chain steps (e.g. current_week)
	DriverOffset float64 // offset applied to the driver (": @current_week - 1" → -1)
	Initial      float64 // INITIAL VALUE
}

// MaxDomain bounds the number of values one RANGE may take: the
// Parameter Enumerator visits every value, and NewSpace materializes
// each domain.
const MaxDomain = 1 << 20

// Range constructs a RANGE declaration. Step must be positive and the
// range non-empty, with at most MaxDomain values.
func Range(name string, lo, hi, step float64) (Decl, error) {
	if name == "" {
		return Decl{}, errors.New("param: empty parameter name")
	}
	if step <= 0 {
		return Decl{}, fmt.Errorf("param: %s: STEP BY must be positive, got %g", name, step)
	}
	if hi < lo {
		return Decl{}, fmt.Errorf("param: %s: RANGE %g TO %g is empty", name, lo, hi)
	}
	// Written as a negation so NaN bounds are rejected too.
	if !((hi-lo)/step < MaxDomain) {
		return Decl{}, fmt.Errorf("param: %s: RANGE %g TO %g STEP BY %g has more than %d values",
			name, lo, hi, step, MaxDomain)
	}
	return Decl{Name: name, Kind: KindRange, Lo: lo, Hi: hi, Step: step}, nil
}

// Set constructs a SET declaration. The values are deduplicated and
// sorted so domain order is deterministic regardless of declaration
// order.
func Set(name string, values ...float64) (Decl, error) {
	if name == "" {
		return Decl{}, errors.New("param: empty parameter name")
	}
	if len(values) == 0 {
		return Decl{}, fmt.Errorf("param: %s: SET requires at least one value", name)
	}
	vs := append([]float64(nil), values...)
	sort.Float64s(vs)
	uniq := vs[:1]
	for _, v := range vs[1:] {
		if v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	return Decl{Name: name, Kind: KindSet, Values: uniq}, nil
}

// Chain constructs a CHAIN declaration.
func Chain(name, column, driver string, offset, initial float64) (Decl, error) {
	if name == "" || column == "" || driver == "" {
		return Decl{}, errors.New("param: CHAIN requires name, column and driver")
	}
	return Decl{
		Name: name, Kind: KindChain,
		ChainColumn: column, DriverName: driver,
		DriverOffset: offset, Initial: initial,
	}, nil
}

// Domain returns the ordered list of values the parameter may take.
// Chain parameters have no enumerable domain and return nil.
func (d Decl) Domain() []float64 {
	switch d.Kind {
	case KindRange:
		n := d.Cardinality()
		out := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, d.Lo+float64(i)*d.Step)
		}
		return out
	case KindSet:
		return append([]float64(nil), d.Values...)
	default:
		return nil
	}
}

// Cardinality returns the number of values in the domain (0 for chain
// parameters).
func (d Decl) Cardinality() int {
	switch d.Kind {
	case KindRange:
		// Guard against float drift at the upper boundary: 0 TO 52 STEP 4
		// must include 52.
		n := int((d.Hi-d.Lo)/d.Step+1e-9) + 1
		if n < 0 {
			return 0
		}
		return n
	case KindSet:
		return len(d.Values)
	default:
		return 0
	}
}

func (d Decl) String() string {
	switch d.Kind {
	case KindRange:
		return fmt.Sprintf("@%s AS RANGE %g TO %g STEP BY %g", d.Name, d.Lo, d.Hi, d.Step)
	case KindSet:
		parts := make([]string, len(d.Values))
		for i, v := range d.Values {
			parts[i] = fmt.Sprintf("%g", v)
		}
		return fmt.Sprintf("@%s AS SET (%s)", d.Name, strings.Join(parts, ","))
	case KindChain:
		return fmt.Sprintf("@%s AS CHAIN %s FROM @%s : @%s %+g INITIAL VALUE %g",
			d.Name, d.ChainColumn, d.DriverName, d.DriverName, d.DriverOffset, d.Initial)
	default:
		return fmt.Sprintf("@%s AS <invalid>", d.Name)
	}
}
