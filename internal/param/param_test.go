package param

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRangeDomain(t *testing.T) {
	d, err := Range("current_week", 0, 52, 4)
	if err != nil {
		t.Fatal(err)
	}
	dom := d.Domain()
	if len(dom) != 14 {
		t.Fatalf("RANGE 0 TO 52 STEP 4 cardinality = %d, want 14", len(dom))
	}
	if dom[0] != 0 || dom[13] != 52 {
		t.Fatalf("domain endpoints = %g..%g, want 0..52", dom[0], dom[13])
	}
	if d.Cardinality() != 14 {
		t.Fatalf("Cardinality = %d", d.Cardinality())
	}
}

func TestRangeSingleton(t *testing.T) {
	d, err := Range("x", 5, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Domain(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("singleton range domain = %v", got)
	}
}

func TestRangeErrors(t *testing.T) {
	if _, err := Range("", 0, 1, 1); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := Range("x", 0, 1, 0); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := Range("x", 0, 1, -1); err == nil {
		t.Fatal("negative step accepted")
	}
	if _, err := Range("x", 2, 1, 1); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := Range("x", 0, MaxDomain-1, 1); err != nil {
		t.Fatalf("range of MaxDomain values rejected: %v", err)
	}
	for _, hi := range []float64{MaxDomain, 1e300, math.Inf(1), math.NaN()} {
		if _, err := Range("x", 0, hi, 1); err == nil {
			t.Fatalf("RANGE 0 TO %g accepted", hi)
		}
	}
}

func TestSetDedupAndSort(t *testing.T) {
	d, err := Set("feature_release", 44, 12, 36, 12)
	if err != nil {
		t.Fatal(err)
	}
	dom := d.Domain()
	want := []float64{12, 36, 44}
	if len(dom) != len(want) {
		t.Fatalf("domain = %v, want %v", dom, want)
	}
	for i := range want {
		if dom[i] != want[i] {
			t.Fatalf("domain = %v, want %v", dom, want)
		}
	}
}

func TestSetErrors(t *testing.T) {
	if _, err := Set("x"); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := Set("", 1); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestChainDecl(t *testing.T) {
	d, err := Chain("release_week", "release_week", "current_week", -1, 52)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindChain || d.Cardinality() != 0 || d.Domain() != nil {
		t.Fatalf("chain decl misbehaves: %+v", d)
	}
	if _, err := Chain("", "c", "d", 0, 0); err == nil {
		t.Fatal("empty chain name accepted")
	}
}

func TestKindString(t *testing.T) {
	if KindRange.String() != "RANGE" || KindSet.String() != "SET" || KindChain.String() != "CHAIN" {
		t.Fatal("Kind.String broken")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown kind string")
	}
}

func TestDeclString(t *testing.T) {
	r, _ := Range("a", 0, 10, 2)
	if got := r.String(); !strings.Contains(got, "RANGE 0 TO 10 STEP BY 2") {
		t.Fatalf("Range String = %q", got)
	}
	s, _ := Set("b", 3, 1)
	if got := s.String(); !strings.Contains(got, "SET (1,3)") {
		t.Fatalf("Set String = %q", got)
	}
	c, _ := Chain("r", "col", "wk", -1, 52)
	if got := c.String(); !strings.Contains(got, "CHAIN col") {
		t.Fatalf("Chain String = %q", got)
	}
}

func TestPointCloneWithKey(t *testing.T) {
	p := Point{"a": 1, "b": 2}
	q := p.With("a", 9)
	if p["a"] != 1 || q["a"] != 9 || q["b"] != 2 {
		t.Fatal("With mutated receiver or dropped bindings")
	}
	if p.String() != "{a=1;b=2}" {
		t.Fatalf("String = %q", p.String())
	}
	if got := Point(nil).With("a", 1); got["a"] != 1 {
		t.Fatalf("nil point With = %v", got)
	}
}

func TestPointGetters(t *testing.T) {
	p := Point{"x": 3}
	if p.MustGet("x") != 3 {
		t.Fatal("MustGet broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet on missing binding did not panic")
		}
	}()
	p.MustGet("y")
}

func mustSpaceT(t *testing.T) *Space {
	t.Helper()
	wk, _ := Range("week", 0, 3, 1) // 4 values
	p1, _ := Range("p1", 0, 8, 4)   // 3 values
	fr, _ := Set("fr", 12, 36)      // 2 values
	ch, _ := Chain("rw", "rw", "week", -1, 52)
	return MustSpace(wk, p1, fr, ch)
}

func TestSpaceSizeAndEnumeration(t *testing.T) {
	s := mustSpaceT(t)
	if s.Size() != 24 {
		t.Fatalf("Size = %d, want 24", s.Size())
	}
	seen := make(map[string]bool)
	for i := 0; i < s.Size(); i++ {
		p := s.Point(i)
		if len(p) != 3 {
			t.Fatalf("point binds %d params: %v", len(p), p)
		}
		if seen[p.String()] {
			t.Fatalf("duplicate point %v", p)
		}
		seen[p.String()] = true
	}
}

func TestSpacePointIndexRoundTrip(t *testing.T) {
	s := mustSpaceT(t)
	for i := 0; i < s.Size(); i++ {
		p := s.Point(i)
		j, err := s.Index(p)
		if err != nil {
			t.Fatal(err)
		}
		if j != i {
			t.Fatalf("Index(Point(%d)) = %d", i, j)
		}
	}
}

func TestSpaceIndexErrors(t *testing.T) {
	s := mustSpaceT(t)
	if _, err := s.Index(Point{"week": 0}); err == nil {
		t.Fatal("partial point accepted")
	}
	if _, err := s.Index(Point{"week": 0.5, "p1": 0, "fr": 12}); err == nil {
		t.Fatal("off-domain value accepted")
	}
	p := s.Point(0).With("nosuch", 3)
	if _, err := s.Index(p); err == nil || !strings.Contains(err.Error(), "nosuch=3") {
		t.Fatalf("Index of a point binding an undeclared name: err = %v, want one naming nosuch", err)
	}
}

func TestSpacePointPanicsOutOfRange(t *testing.T) {
	s := mustSpaceT(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Point(Size()) did not panic")
		}
	}()
	s.Point(s.Size())
}

func TestSpaceRowMajorOrder(t *testing.T) {
	a, _ := Range("a", 0, 1, 1)
	b, _ := Range("b", 0, 2, 1)
	s := MustSpace(a, b)
	// Last declared parameter varies fastest.
	want := []Point{
		{"a": 0, "b": 0}, {"a": 0, "b": 1}, {"a": 0, "b": 2},
		{"a": 1, "b": 0}, {"a": 1, "b": 1}, {"a": 1, "b": 2},
	}
	for i, w := range want {
		if got := s.Point(i); got.String() != w.String() {
			t.Fatalf("Point(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestSpaceDuplicateName(t *testing.T) {
	a, _ := Range("a", 0, 1, 1)
	a2, _ := Set("a", 5)
	if _, err := NewSpace(a, a2); err == nil {
		t.Fatal("duplicate parameter accepted")
	}
}

func TestSpaceSizeOverflowRejected(t *testing.T) {
	decls := make([]Decl, 4)
	for i := range decls {
		decls[i], _ = Range(string(rune('a'+i)), 0, MaxDomain-1, 1)
	}
	if _, err := NewSpace(decls[:3]...); err != nil {
		t.Fatalf("2^60-point space rejected: %v", err)
	}
	if _, err := NewSpace(decls...); err == nil {
		t.Fatal("2^80-point space accepted")
	}
}

func TestSpaceDeclLookupAndAccessors(t *testing.T) {
	s := mustSpaceT(t)
	if pos, ok := s.Position("p1"); !ok || pos != 1 {
		t.Fatalf("Position(p1) = %d, %v; want 1", pos, ok)
	}
	// A CHAIN parameter has no place in a value row.
	for _, name := range []string{"rw", "zzz"} {
		if _, ok := s.Position(name); ok {
			t.Fatalf("Position found %s", name)
		}
	}
	if len(s.Decls()) != 3 || len(s.Chains()) != 1 {
		t.Fatalf("accessor lengths = %d, %d", len(s.Decls()), len(s.Chains()))
	}
}

func TestEmptySpace(t *testing.T) {
	s := MustSpace()
	if s.Size() != 1 {
		t.Fatalf("empty space size = %d", s.Size())
	}
	if p := s.Point(0); len(p) != 0 {
		t.Fatalf("empty space point = %v", p)
	}
}

func TestNeighbors(t *testing.T) {
	a, _ := Range("a", 0, 4, 1)
	b, _ := Set("b", 10, 20, 30)
	one, _ := Set("c", 7)
	s := MustSpace(a, b, one)
	neighbors := func(p Point) []Point {
		idx, err := s.Index(p)
		if err != nil {
			t.Fatal(err)
		}
		var out []Point
		for _, n := range s.Neighbors(idx, nil) {
			out = append(out, s.Point(n))
		}
		return out
	}
	// One domain step along each axis, lower first, in declaration
	// order; the one-value axis has no neighbors.
	got := neighbors(Point{"a": 2, "b": 20, "c": 7})
	want := []Point{
		{"a": 1, "b": 20, "c": 7}, {"a": 3, "b": 20, "c": 7},
		{"a": 2, "b": 10, "c": 7}, {"a": 2, "b": 30, "c": 7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("interior neighbors = %v, want %v", got, want)
	}
	got = neighbors(Point{"a": 0, "b": 30, "c": 7})
	want = []Point{{"a": 1, "b": 30, "c": 7}, {"a": 0, "b": 20, "c": 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("corner neighbors = %v, want %v", got, want)
	}
	if n := MustSpace().Neighbors(0, nil); len(n) != 0 {
		t.Fatalf("the empty space's point has neighbors %v", n)
	}
}

// TestSpaceValues checks that Values is Point's value row, in Decls
// order, and round-trips with Index, for every index of a mixed
// RANGE/SET space with a one-value SET, and of the empty space.
func TestSpaceValues(t *testing.T) {
	a, _ := Range("a", 0, 2, 1)
	one, _ := Set("one", 5)
	b, _ := Set("b", -1, 3)
	for _, s := range []*Space{mustSpaceT(t), MustSpace(a, one, b), MustSpace()} {
		decls := s.Decls()
		var vals []float64
		for i := 0; i < s.Size(); i++ {
			vals = s.Values(i, vals)
			p := s.Point(i)
			if len(vals) != len(decls) || len(p) != len(decls) {
				t.Fatalf("point %d: %d values, %d bindings, %d decls", i, len(vals), len(p), len(decls))
			}
			back := Point{}
			for k, d := range decls {
				if vals[k] != p[d.Name] {
					t.Fatalf("point %d: Values[%d] = %g, Point binds @%s = %g", i, k, vals[k], d.Name, p[d.Name])
				}
				back[d.Name] = vals[k]
			}
			if j, err := s.Index(back); err != nil || j != i {
				t.Fatalf("Index(Values(%d)) = %d, %v", i, j, err)
			}
		}
	}
}

// Property: Point/Index are mutually inverse over arbitrary small spaces.
func TestQuickPointIndexBijective(t *testing.T) {
	f := func(aCard, bCard uint8, probe uint16) bool {
		na := int(aCard%7) + 1
		nb := int(bCard%5) + 1
		a, err := Range("a", 0, float64(na-1), 1)
		if err != nil {
			return false
		}
		b, err := Range("b", 0, float64(nb-1), 1)
		if err != nil {
			return false
		}
		s, err := NewSpace(a, b)
		if err != nil {
			return false
		}
		idx := int(probe) % s.Size()
		back, err := s.Index(s.Point(idx))
		return err == nil && back == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a RANGE spanning n steps from lo has cardinality n.
func TestQuickRangeDomainContained(t *testing.T) {
	f := func(loRaw, stepRaw uint8, nRaw uint8) bool {
		lo := float64(loRaw) / 4
		step := float64(stepRaw%16+1) / 4
		n := int(nRaw%20) + 1
		hi := lo + float64(n-1)*step
		d, err := Range("x", lo, hi, step)
		if err != nil {
			return false
		}
		return d.Cardinality() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
