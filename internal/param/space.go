package param

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one valuation of the declared parameters: a mapping from
// parameter name to value. Points are the unit of work for the Monte
// Carlo engine — each Point corresponds to one full PDB invocation in
// the naive execution strategy (Fig. 3).
type Point map[string]float64

// Clone returns an independent copy of the point.
func (p Point) Clone() Point {
	out := make(Point, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// With returns a copy of the point with name set to v.
func (p Point) With(name string, v float64) Point {
	out := p.Clone()
	out[name] = v
	return out
}

// Get returns the value of the named parameter, with ok=false when the
// point does not bind it.
func (p Point) Get(name string) (float64, bool) {
	v, ok := p[name]
	return v, ok
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

// Key returns a canonical string form of the point, usable as a map
// key. Names are sorted so two equal points always produce equal keys.
func (p Point) Key() string {
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s=%g", n, p[n])
	}
	return b.String()
}

// String implements fmt.Stringer using the canonical key form.
func (p Point) String() string { return "{" + p.Key() + "}" }

// Space is the cartesian product of enumerable parameter domains. It
// implements the brute-force Parameter Enumerator of Fig. 3: black-box
// functions admit no continuity assumptions, so every feasible
// combination must be visited to guarantee a global optimum (§2.3).
type Space struct {
	decls   []Decl // enumerable (range/set) declarations, in declaration order
	chains  []Decl // chain declarations, carried but not enumerated
	domains [][]float64
}

// NewSpace builds a Space from declarations. Duplicate names are
// rejected.
func NewSpace(decls ...Decl) (*Space, error) {
	seen := make(map[string]bool, len(decls))
	s := &Space{}
	size := 1
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
		if len(dom) > math.MaxInt/size {
			return nil, fmt.Errorf("param: the space has more than %d points", math.MaxInt)
		}
		size *= len(dom)
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

// Decl returns the declaration with the given name.
func (s *Space) Decl(name string) (Decl, bool) {
	for _, d := range s.decls {
		if d.Name == name {
			return d, true
		}
	}
	for _, d := range s.chains {
		if d.Name == name {
			return d, true
		}
	}
	return Decl{}, false
}

// Size returns the number of points in the space (the product of
// domain cardinalities). An empty space has size 1: the single empty
// point.
func (s *Space) Size() int {
	n := 1
	for _, dom := range s.domains {
		n *= len(dom)
	}
	return n
}

// Point materializes the idx'th point in row-major order (the last
// declared parameter varies fastest). idx must be in [0, Size()).
func (s *Space) Point(idx int) Point {
	if idx < 0 || idx >= s.Size() {
		panic(fmt.Sprintf("param: point index %d out of range [0,%d)", idx, s.Size()))
	}
	p := make(Point, len(s.decls))
	for i := len(s.domains) - 1; i >= 0; i-- {
		dom := s.domains[i]
		p[s.decls[i].Name] = dom[idx%len(dom)]
		idx /= len(dom)
	}
	return p
}

// Index is the inverse of Point: it returns the row-major index of a
// point whose bindings all lie in the respective domains.
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
	return idx, nil
}

// Points returns every point in the space in row-major order. For
// large spaces prefer Each, which avoids materializing the slice.
func (s *Space) Points() []Point {
	out := make([]Point, 0, s.Size())
	s.Each(func(p Point) bool {
		out = append(out, p)
		return true
	})
	return out
}

// Each visits every point in row-major order until fn returns false.
func (s *Space) Each(fn func(Point) bool) {
	n := s.Size()
	for i := 0; i < n; i++ {
		if !fn(s.Point(i)) {
			return
		}
	}
}

// Neighbors returns the points adjacent to p along each parameter axis
// (one domain step in each direction). The interactive engine's
// exploration heuristic (§5) uses it to prefetch points the user is
// likely to inspect next.
func (s *Space) Neighbors(p Point) []Point {
	var out []Point
	for i, d := range s.decls {
		dom := s.domains[i]
		v, ok := p[d.Name]
		if !ok {
			continue
		}
		pos := -1
		for j, dv := range dom {
			if dv == v {
				pos = j
				break
			}
		}
		if pos < 0 {
			continue
		}
		if pos > 0 {
			out = append(out, p.With(d.Name, dom[pos-1]))
		}
		if pos < len(dom)-1 {
			out = append(out, p.With(d.Name, dom[pos+1]))
		}
	}
	return out
}
