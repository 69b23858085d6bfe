package param

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
)

// Point is one valuation of the declared parameters by name: the form
// a point takes at the edges (fixed values, chosen groups, a session's
// focus). Each point corresponds to one full PDB invocation in the
// naive execution strategy (Fig. 3); the sweep works on its value row
// (Space.Values), which evaluators read by position.
type Point map[string]float64

// With returns a copy of the point with name set to v.
func (p Point) With(name string, v float64) Point {
	out := make(Point, len(p)+1)
	maps.Copy(out, p)
	out[name] = v
	return out
}

// MustGet returns the value of the named parameter and panics when the
// point does not bind it — a binding bug in the engine, not user error.
func (p Point) MustGet(name string) float64 {
	v, ok := p[name]
	if !ok {
		panic(fmt.Sprintf("param: point %v does not bind @%s", p, name))
	}
	return v
}

// String implements fmt.Stringer: the bindings sorted by name, as in
// {a=1;b=2}, so equal points print alike.
func (p Point) String() string {
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s=%g", n, p[n])
	}
	return b.String() + "}"
}

// Space is the cartesian product of enumerable parameter domains. It
// implements the brute-force Parameter Enumerator of Fig. 3: black-box
// functions admit no continuity assumptions, so every feasible
// combination must be visited to guarantee a global optimum (§2.3).
type Space struct {
	decls   []Decl // enumerable (range/set) declarations, in declaration order
	chains  []Decl // chain declarations, carried but not enumerated
	domains [][]float64
	size    int // the product of the domains' lengths
}

// NewSpace builds a Space from declarations. Duplicate names are
// rejected.
func NewSpace(decls ...Decl) (*Space, error) {
	seen := make(map[string]bool, len(decls))
	s := &Space{size: 1}
	for _, d := range decls {
		if seen[d.Name] {
			return nil, fmt.Errorf("param: duplicate parameter @%s", d.Name)
		}
		seen[d.Name] = true
		if d.Kind == KindChain {
			s.chains = append(s.chains, d)
			continue
		}
		dom := d.Domain()
		if len(dom) == 0 {
			return nil, fmt.Errorf("param: @%s has an empty domain", d.Name)
		}
		if len(dom) > math.MaxInt/s.size {
			return nil, fmt.Errorf("param: the space has more than %d points", math.MaxInt)
		}
		s.size *= len(dom)
		s.decls = append(s.decls, d)
		s.domains = append(s.domains, dom)
	}
	return s, nil
}

// MustSpace is NewSpace, panicking on error; for tests and examples.
func MustSpace(decls ...Decl) *Space {
	s, err := NewSpace(decls...)
	if err != nil {
		panic(err)
	}
	return s
}

// Decls returns the enumerable declarations in declaration order.
func (s *Space) Decls() []Decl { return append([]Decl(nil), s.decls...) }

// Chains returns the chain declarations in declaration order.
func (s *Space) Chains() []Decl { return append([]Decl(nil), s.chains...) }

// Position returns the position of the enumerable parameter name in
// Decls order: where a value row (see Values) holds its value.
func (s *Space) Position(name string) (int, bool) {
	i := slices.IndexFunc(s.decls, func(d Decl) bool { return d.Name == name })
	return i, i >= 0
}

// Size returns the number of points in the space (the product of
// domain cardinalities). An empty space has size 1: the single empty
// point.
func (s *Space) Size() int { return s.size }

// Values writes the idx'th point's values into dst, one per
// declaration in Decls order, growing dst as needed, and returns it.
// Points are numbered in row-major order (the last declared parameter
// varies fastest); idx must be in [0, Size()). A value row is the
// sweep's point form: evaluators resolve parameter names to row
// positions once, when they are built.
func (s *Space) Values(idx int, dst []float64) []float64 {
	if idx < 0 || idx >= s.size {
		panic(fmt.Sprintf("param: point index %d out of range [0,%d)", idx, s.size))
	}
	dst = slices.Grow(dst[:0], len(s.domains))[:len(s.domains)]
	for i := len(s.domains) - 1; i >= 0; i-- {
		dom := s.domains[i]
		dst[i] = dom[idx%len(dom)]
		idx /= len(dom)
	}
	return dst
}

// Point materializes the idx'th point (see Values) as a map.
func (s *Space) Point(idx int) Point {
	vals := s.Values(idx, nil)
	p := make(Point, len(vals))
	for i, d := range s.decls {
		p[d.Name] = vals[i]
	}
	return p
}

// Index is the inverse of Point: it returns the row-major index of a
// point whose bindings all lie in the respective domains. It rejects a
// point that binds a name the space does not declare as enumerable.
func (s *Space) Index(p Point) (int, error) {
	idx := 0
	for i, d := range s.decls {
		v, ok := p[d.Name]
		if !ok {
			return 0, fmt.Errorf("param: point does not bind @%s", d.Name)
		}
		pos := -1
		for j, dv := range s.domains[i] {
			if dv == v {
				pos = j
				break
			}
		}
		if pos < 0 {
			return 0, fmt.Errorf("param: value %g not in domain of @%s", v, d.Name)
		}
		idx = idx*len(s.domains[i]) + pos
	}
	if len(p) > len(s.decls) { // it binds every declared name, and more
		return 0, fmt.Errorf("param: point %v binds a name the space does not declare as enumerable", p)
	}
	return idx, nil
}

// Neighbors appends to dst the indices of the points adjacent to the
// idx'th, idx in [0, Size()), along each parameter axis (one domain
// step in each direction, the lower first), in declaration order, and
// returns it. The interactive engine's exploration heuristic (§5)
// uses it to prefetch points the user is likely to inspect next.
func (s *Space) Neighbors(idx int, dst []int) []int {
	stride := s.size
	for _, dom := range s.domains {
		stride /= len(dom)
		pos := idx / stride % len(dom)
		if pos > 0 {
			dst = append(dst, idx-stride)
		}
		if pos < len(dom)-1 {
			dst = append(dst, idx+stride)
		}
	}
	return dst
}
