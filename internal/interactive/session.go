// Package interactive implements Jigsaw's online what-if mode (§5 of
// the paper, Algorithm 5): a human explores the parameter space point
// by point while the engine runs a pick–evaluate–update loop that
// progressively refines estimates, validates fingerprint matches with
// duplicate samples, and prefetches neighboring points the user is
// likely to visit next.
//
// The Fuzzy Prophet tool (cmd/fuzzy-prophet) drives a Session from a
// terminal; examples/interactivewhatif drives one programmatically.
package interactive

import (
	"errors"
	"fmt"

	"jigsaw/internal/core"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
	"jigsaw/internal/stats"
)

// Task identifies the three processing-task categories of §5.
type Task int

const (
	// TaskRefinement draws new samples for the point of interest and
	// folds them back into its basis distribution.
	TaskRefinement Task = iota
	// TaskValidation reproduces samples the basis received from other
	// points, extending the point's effective fingerprint; a mismatch
	// detaches the point onto its own basis.
	TaskValidation
	// TaskExploration spends the tick on a neighboring point likely
	// to be inspected next.
	TaskExploration
)

// String implements fmt.Stringer.
func (t Task) String() string {
	switch t {
	case TaskRefinement:
		return "refinement"
	case TaskValidation:
		return "validation"
	case TaskExploration:
		return "exploration"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// Options configures a Session.
type Options struct {
	// BatchSize is the number of (point, sampleID) pairs evaluated per
	// tick (Algorithm 5 picks 10).
	BatchSize int
	// FingerprintLen is the size of the initial-guess fingerprint
	// (§5 uses a very small one, e.g. 10).
	FingerprintLen int
	// MasterSeed names the samples as mc.Options.MasterSeed does:
	// sample id of a session is sample id of an engine.
	MasterSeed uint64
}

// withDefaults rejects option values that no default repairs and
// returns a copy with unset fields defaulted.
func (o Options) withDefaults() (Options, error) {
	switch {
	case o.BatchSize < 0:
		return o, fmt.Errorf("interactive: negative BatchSize %d", o.BatchSize)
	case o.FingerprintLen < 0:
		return o, fmt.Errorf("interactive: negative FingerprintLen %d", o.FingerprintLen)
	}
	if o.BatchSize == 0 {
		o.BatchSize = 10
	}
	if o.FingerprintLen == 0 {
		o.FingerprintLen = 10
	}
	return o, nil
}

// basis is a shared sample pool in basis space: every mapped point
// contributes samples through its inverse mapping, so work done for
// any point sharpens all points on the same basis (§5).
type basis struct {
	id int
	// samples is the pool by sample id, in basis space; size counts
	// its samples.
	samples pool
	size    int
}

// add sets sample id of the pool to v, drawn by the point at Space
// index from.
func (b *basis) add(id int, v float64, from int) {
	if b.samples.put(id, v, from) {
		b.size++
	}
}

// pointState tracks one visited parameter point.
type pointState struct {
	// idx is the point's Space index and vals its value row.
	idx  int
	vals []float64
	// fingerprint is the point's own first-m sample vector.
	fingerprint core.Fingerprint
	// drawn holds, by sample id, every sample drawn directly for this
	// point (point-space).
	drawn   pool
	basisID int
	mapping core.Linear // basis → point
}

// sample is one entry of a pool indexed by sample id: its value, when
// ok, and the Space index of the point that drew it; in a point's own
// pool, validated marks a sample that reproduced its basis' sample.
type sample struct {
	v             float64
	from          int
	ok, validated bool
}

// pool holds samples by id.
type pool []sample

// has reports whether the pool holds sample id.
func (p pool) has(id int) bool { return id < len(p) && p[id].ok }

// put sets sample id to v, drawn by the point at Space index from,
// growing the pool as needed, and reports whether id is new.
func (p *pool) put(id int, v float64, from int) bool {
	if n := id + 1 - len(*p); n > 0 {
		*p = append(*p, make([]sample, n)...)
	}
	e := &(*p)[id]
	added := !e.ok
	e.v, e.from, e.ok = v, from, true
	return added
}

// Stats counts session work.
type Stats struct {
	// Evaluations is the number of samples drawn and kept: every
	// black-box invocation, except that a validation batch's draws
	// past its first mismatch are dropped uncounted.
	Evaluations int
	// Refinements, Validations, Explorations count completed tasks.
	Refinements, Validations, Explorations int
	// Rebinds counts validation failures that detached a point from
	// its basis.
	Rebinds int
	// Bases is the number of basis distributions.
	Bases int
}

// Session is an online exploration session over one scenario column.
// Sessions are not safe for concurrent use.
type Session struct {
	eval mc.PointEval
	opts Options

	store *core.Store
	bases []*basis
	// points holds the visited points by Space index; focus is the
	// point of interest (nil before SetFocus).
	points   map[int]*pointState
	focus    *pointState
	taskTurn int
	stats    Stats

	// bound, r and outs are drawBatch's scratch, lent to the
	// evaluator: the binding, the generator, and the one-entry output
	// list (a session draws output 0). Sessions are single-goroutine,
	// so one set serves every batch.
	bound []float64
	r     rng.Rand
	outs  [1][]float64
}

// NewSession builds a session over the points of the given column
// evaluator's space.
func NewSession(eval mc.PointEval, opts Options) (*Session, error) {
	if eval == nil {
		return nil, errors.New("interactive: nil evaluator")
	}
	if eval.Space() == nil {
		return nil, errors.New("interactive: the evaluator has no parameter space")
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Session{
		eval:   eval,
		opts:   opts,
		store:  core.NewStore(core.LinearClass{}, core.NewNormalizationIndex()),
		points: map[int]*pointState{},
	}, nil
}

// Stats returns a snapshot of the session counters.
func (s *Session) Stats() Stats {
	st := s.stats
	st.Bases = len(s.bases)
	return st
}

// SetFocus moves the user's point of interest (a slider change in the
// Fig. 2 GUI). The point is initialized immediately so the user gets a
// first estimate after one fingerprint-sized batch.
func (s *Session) SetFocus(p param.Point) error {
	idx, err := s.eval.Space().Index(p)
	if err != nil {
		return fmt.Errorf("interactive: focus outside the parameter space: %w", err)
	}
	s.focus = s.ensurePoint(idx)
	return nil
}

// Focus returns the current point of interest (nil before SetFocus).
func (s *Session) Focus() param.Point {
	if s.focus == nil {
		return nil
	}
	return s.eval.Space().Point(s.focus.idx)
}

// drawBatch evaluates the given sample ids for ps on the calling
// goroutine and returns the values in id-slice order: the point is
// bound once and the batch draws as one block. Draws are counted by
// the caller.
func (s *Session) drawBatch(ps *pointState, ids []int) []float64 {
	out := make([]float64, len(ids))
	s.bound = s.eval.BindPoint(ps.vals, s.bound)
	s.outs[0] = out
	s.eval.EvalBlockBound(s.bound, s.outs[:], s.opts.MasterSeed, ids, &s.r)
	return out
}

// ensurePoint initializes the idx'th point: compute its fingerprint
// (its first m samples), match it against the basis set, and either
// attach it (reusing precomputed samples for the initial guess, §5) or
// register a new basis seeded with the fingerprint.
func (s *Session) ensurePoint(idx int) *pointState {
	if ps, ok := s.points[idx]; ok {
		return ps
	}
	ids := make([]int, s.opts.FingerprintLen)
	for k := range ids {
		ids[k] = k
	}
	ps := &pointState{idx: idx, vals: s.eval.Space().Values(idx, nil)}
	fp := core.Fingerprint(s.drawBatch(ps, ids))
	s.stats.Evaluations += len(ids)
	ps.fingerprint = fp
	for k, v := range fp {
		ps.drawn.put(k, v, idx)
	}
	if b, mapping, ok, _ := s.store.Match(fp, nil, nil); ok {
		ps.basisID = b.Payload.(*basis).id
		ps.mapping = mapping
	} else {
		ps.basisID = s.newBasis(idx, fp)
		ps.mapping = core.Identity()
	}
	s.points[idx] = ps
	return ps
}

// newBasis registers a basis seeded with the fingerprint of the point
// whose Space index is contributor.
func (s *Session) newBasis(contributor int, fp core.Fingerprint) int {
	b := &basis{id: len(s.bases)}
	for k, v := range fp {
		b.add(k, v, contributor)
	}
	s.bases = append(s.bases, b)
	// The store's basis payload is the live sample pool.
	if _, err := s.store.Add(fp, b); err != nil {
		// Fingerprint lengths are fixed per session; Add can only fail
		// on an engine bug.
		panic(err)
	}
	return b.id
}

// Estimate returns the current progressive estimate for a point: the
// basis sample pool mapped through the point's mapping. ok is false
// for points the session has not touched.
func (s *Session) Estimate(p param.Point) (stats.Summary, bool) {
	idx, err := s.eval.Space().Index(p)
	ps, ok := s.points[idx]
	if err != nil || !ok {
		return stats.Summary{}, false
	}
	acc := stats.NewAccumulator()
	for _, smp := range s.bases[ps.basisID].samples {
		if smp.ok {
			acc.Add(ps.mapping.Apply(smp.v))
		}
	}
	return acc.Summarize(), true
}

// ErrNoFocus is returned by Tick before any SetFocus call.
var ErrNoFocus = errors.New("interactive: no point of interest; call SetFocus first")

// Tick runs one pick–evaluate–update iteration of Algorithm 5 and
// reports which task ran and on which point.
func (s *Session) Tick() (Task, param.Point, error) {
	if s.focus == nil {
		return 0, nil, ErrNoFocus
	}
	ps := s.focus
	task := s.taskHeuristic()
	s.taskTurn++
	switch task {
	case TaskRefinement:
		s.refine(ps)
		s.stats.Refinements++
	case TaskValidation:
		s.validate(ps)
		s.stats.Validations++
	default:
		ps = s.explore(ps)
		s.stats.Explorations++
	}
	return task, s.eval.Space().Point(ps.idx), nil
}

// taskHeuristic is Algorithm 5's TaskHeuristic: a fair rotation that
// keeps the focus sharpening (refinement), its mapping trustworthy
// (validation), and its neighborhood warm (exploration).
func (s *Session) taskHeuristic() Task {
	switch s.taskTurn % 3 {
	case 0:
		return TaskRefinement
	case 1:
		return TaskValidation
	default:
		return TaskExploration
	}
}

// refine draws BatchSize fresh sample ids for the point and folds them
// into the basis through the inverse mapping (M⁻¹, §5). The ids are
// picked first, then the batch is drawn in one call.
func (s *Session) refine(ps *pointState) {
	b := s.bases[ps.basisID]
	inv := ps.mapping.Inverse()
	ids := make([]int, 0, s.opts.BatchSize)
	id := 0
	for len(ids) < s.opts.BatchSize {
		// Next id unused by both the basis and the point.
		for b.samples.has(id) || ps.drawn.has(id) {
			id++
		}
		ids = append(ids, id)
		id++
	}
	vals := s.drawBatch(ps, ids)
	s.stats.Evaluations += len(ids)
	for k, id := range ids {
		ps.drawn.put(id, vals[k], ps.idx)
		b.add(id, inv.Apply(vals[k]), ps.idx)
	}
}

// validate reproduces up to BatchSize basis samples contributed by
// other points, lowest ids first. A reproduced sample that disagrees
// with the mapped basis value invalidates the mapping: the point
// detaches onto its own basis built from everything it has drawn
// directly (§5 "if the new points do not match the values mapped from
// the basis distribution, Jigsaw finds or creates a new basis
// distribution"). The batch draws as one block; draws past the first
// mismatch are dropped, so the point keeps, and the counters count,
// only the samples compared.
func (s *Session) validate(ps *pointState) {
	b := s.bases[ps.basisID]
	ids := make([]int, 0, s.opts.BatchSize)
	for id, smp := range b.samples {
		if smp.ok && smp.from != ps.idx && !(ps.drawn.has(id) && ps.drawn[id].validated) {
			if ids = append(ids, id); len(ids) == s.opts.BatchSize {
				break
			}
		}
	}
	if len(ids) == 0 {
		// Nothing foreign to validate; spend the tick refining.
		s.refine(ps)
		return
	}
	vals := s.drawBatch(ps, ids)
	for k, id := range ids {
		v := vals[k]
		ps.drawn.put(id, v, ps.idx)
		ps.drawn[id].validated = true
		s.stats.Evaluations++
		if !core.ApproxEqual(v, ps.mapping.Apply(b.samples[id].v)) {
			s.rebind(ps)
			return
		}
	}
}

// rebind detaches a point whose mapping failed validation: its own
// drawn samples become a fresh basis.
func (s *Session) rebind(ps *pointState) {
	s.stats.Rebinds++
	id := s.newBasis(ps.idx, ps.fingerprint) // the store clones it
	b := s.bases[id]
	for sid := range ps.drawn {
		if d := &ps.drawn[sid]; d.ok {
			b.add(sid, d.v, ps.idx)
			d.validated = false
		}
	}
	ps.basisID = id
	ps.mapping = core.Identity()
}

// explore refines a neighbor of the focus, fingerprinting it first if
// it is new, and returns the point worked on. Preference:
// uninitialized neighbors first, then the neighbor with the smallest
// basis pool.
func (s *Session) explore(ps *pointState) *pointState {
	neighbors := s.eval.Space().Neighbors(ps.idx, nil)
	target := -1
	for _, n := range neighbors {
		if _, seen := s.points[n]; !seen {
			target = n
			break
		}
	}
	if target < 0 {
		best := -1
		for _, n := range neighbors {
			size := s.bases[s.points[n].basisID].size
			if best < 0 || size < best {
				best = size
				target = n
			}
		}
	}
	if target < 0 {
		// Isolated point (single-point space): refine instead.
		s.refine(ps)
		return ps
	}
	nps := s.ensurePoint(target)
	s.refine(nps)
	return nps
}
