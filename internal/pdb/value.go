// Package pdb is the probabilistic-database substrate Jigsaw is built
// around (§2.1): an MCDB-style engine in which a database represents a
// distribution over possible worlds, VG-functions (stochastic black
// boxes) generate uncertain attribute values, queries are evaluated
// once per sampled world, and per-world answers are aggregated into
// result-distribution estimates.
//
// The package doubles as the reproduction's stand-in for the paper's
// "C# + MS SQL Server" prototype in the Fig. 7 comparison: queries go
// through the full parse → plan → execute stack over every sampled
// world, paying DB overhead on tiny models but winning on
// data-dependent ones by drawing each row's VG column across a block
// of worlds at once.
package pdb

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates runtime value types. The engine is dynamically
// typed in the style of analytics scripting layers: columns carry no
// declared type and operators check kinds at evaluation time.
type Kind int

const (
	// KindNull is the SQL NULL.
	KindNull Kind = iota
	// KindFloat is a 64-bit float; all model arithmetic uses it.
	KindFloat
	// KindBool is a boolean, held as 0 or 1 in the float payload.
	KindBool
	// KindString is a string.
	KindString
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindFloat:
		return "FLOAT"
	case KindBool:
		return "BOOL"
	case KindString:
		return "STRING"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is one cell. The zero Value is NULL. A float or bool keeps its
// number in f, a bool as 0 or 1, just as a Vec lane does, so a numeric
// rule reads both kinds the same way; the kind still tells them apart
// for String.
type Value struct {
	kind Kind
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Float wraps a float64.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Bool wraps a bool as 0 or 1.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, f: 1}
	}
	return Value{kind: KindBool}
}

// String wraps a string. (Use .Text() to unwrap; String() is the
// fmt.Stringer.)
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Kind returns the value's runtime kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// numeric reports whether the value is a float or a bool.
func (v Value) numeric() bool { return v.kind == KindFloat || v.kind == KindBool }

// AsFloat unwraps a float, converting bools (true=1) as SQL's
// arithmetic on predicates does in this dialect.
func (v Value) AsFloat() (float64, error) {
	if !v.numeric() {
		return 0, errNotNumeric(v.kind)
	}
	return v.f, nil
}

func errNotNumeric(k Kind) error { return fmt.Errorf("pdb: %s is not numeric", k) }

// AsBool unwraps a bool; floats are truthy when non-zero.
func (v Value) AsBool() (bool, error) {
	if !v.numeric() {
		return false, fmt.Errorf("pdb: %s is not boolean", v.kind)
	}
	return v.f != 0, nil
}

// Text unwraps a string value.
func (v Value) Text() (string, error) {
	if v.kind != KindString {
		return "", fmt.Errorf("pdb: %s is not a string", v.kind)
	}
	return v.s, nil
}

// Equal compares two values; NULL equals nothing (including NULL),
// mirroring SQL three-valued comparison collapsed to false. Two numeric
// values (floats and bools mixed) compare by their number, as Compare
// orders them, so TRUE = 1; a string equals only a string.
func (v Value) Equal(o Value) bool {
	switch {
	case v.numeric() && o.numeric():
		return v.f == o.f
	case v.kind == KindString && o.kind == KindString:
		return v.s == o.s
	}
	return false
}

// Compare orders two non-null values: two strings by their text, and
// any two numeric values (floats and bools mixed) by their number:
// -1, 0, +1.
func (v Value) Compare(o Value) (int, error) {
	switch {
	case v.kind == KindNull || o.kind == KindNull:
		return 0, fmt.Errorf("pdb: cannot compare NULL")
	case v.kind == KindString && o.kind == KindString:
		return strings.Compare(v.s, o.s), nil
	case !v.numeric() || !o.numeric():
		return 0, fmt.Errorf("pdb: cannot compare %s with %s", v.kind, o.kind)
	}
	return cmpFloat(v.f, o.f), nil
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// String renders the value for result display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.f != 0)
	case KindString:
		return v.s
	default:
		return "?"
	}
}
