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
	"math"
	"sort"

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
	// Tolerance is the mapping validation tolerance.
	Tolerance float64
}

// validate rejects option values that no default repairs. It runs
// before withDefaults, so a non-finite Tolerance is caught instead of
// silently breaking validation (NaN) or being replaced by the default
// (-Inf).
func (o Options) validate() error {
	switch {
	case o.BatchSize < 0:
		return fmt.Errorf("interactive: negative BatchSize %d", o.BatchSize)
	case o.FingerprintLen < 0:
		return fmt.Errorf("interactive: negative FingerprintLen %d", o.FingerprintLen)
	case math.IsNaN(o.Tolerance) || math.IsInf(o.Tolerance, 0):
		return fmt.Errorf("interactive: non-finite Tolerance %g", o.Tolerance)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.BatchSize == 0 {
		o.BatchSize = 10
	}
	if o.FingerprintLen == 0 {
		o.FingerprintLen = 10
	}
	if o.Tolerance <= 0 {
		o.Tolerance = core.DefaultTolerance
	}
	return o
}

// basis is a shared sample pool in basis space: every mapped point
// contributes samples through its inverse mapping, so work done for
// any point sharpens all points on the same basis (§5).
type basis struct {
	id int
	// samples maps sampleID → basis-space value.
	samples map[int]float64
	// contributor records which point key supplied each sample.
	contributor map[int]string
}

// pointState tracks one visited parameter point.
type pointState struct {
	point param.Point
	// fingerprint is the point's own first-m sample vector.
	fingerprint core.Fingerprint
	// drawn holds every sample drawn directly for this point
	// (point-space), keyed by sampleID.
	drawn map[int]float64
	// validated marks basis sample ids this point has reproduced.
	validated map[int]bool
	basisID   int
	mapping   core.Linear // basis → point
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
	eval  mc.PointEval
	space *param.Space
	opts  Options

	store  *core.Store
	bases  []*basis
	points map[string]*pointState

	focus    param.Point
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

// NewSession builds a session for the given column evaluator.
func NewSession(eval mc.PointEval, space *param.Space, opts Options) (*Session, error) {
	if eval == nil {
		return nil, errors.New("interactive: nil evaluator")
	}
	if space == nil {
		return nil, errors.New("interactive: nil space")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	return &Session{
		eval:   eval,
		space:  space,
		opts:   opts,
		store:  core.NewStore(core.LinearClass{}, core.NewNormalizationIndex(6, opts.Tolerance), opts.Tolerance),
		points: map[string]*pointState{},
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
	if _, err := s.space.Index(p); err != nil {
		return fmt.Errorf("interactive: focus outside the parameter space: %w", err)
	}
	s.focus = p.Clone()
	_, err := s.ensurePoint(s.focus)
	return err
}

// Focus returns the current point of interest.
func (s *Session) Focus() param.Point { return s.focus.Clone() }

// drawBatch evaluates the given sample ids for p on the calling
// goroutine and returns the values in id-slice order: p is bound once
// and the batch draws as one block. Draws are counted by the caller.
func (s *Session) drawBatch(p param.Point, ids []int) []float64 {
	out := make([]float64, len(ids))
	s.bound = s.eval.BindPoint(p, s.bound)
	s.outs[0] = out
	s.eval.EvalBlockBound(s.bound, s.outs[:], s.opts.MasterSeed, ids, &s.r)
	return out
}

// ensurePoint initializes a point: compute its fingerprint (its first
// m samples), match it against the basis set, and either attach it
// (reusing precomputed samples for the initial guess, §5) or register
// a new basis seeded with the fingerprint.
func (s *Session) ensurePoint(p param.Point) (*pointState, error) {
	key := p.Key()
	if ps, ok := s.points[key]; ok {
		return ps, nil
	}
	ids := make([]int, s.opts.FingerprintLen)
	for k := range ids {
		ids[k] = k
	}
	vals := s.drawBatch(p, ids)
	s.stats.Evaluations += len(ids)
	fp := core.Fingerprint(vals)
	drawn := make(map[int]float64, len(fp))
	for k, v := range fp {
		drawn[k] = v
	}
	ps := &pointState{
		point:       p.Clone(),
		fingerprint: fp,
		drawn:       drawn,
		validated:   map[int]bool{},
	}
	if b, mapping, ok, _ := s.store.Match(fp, nil, nil); ok {
		ps.basisID = b.Payload.(*basis).id
		ps.mapping = mapping
	} else {
		ps.basisID = s.newBasis(key, fp)
		ps.mapping = core.Identity()
	}
	s.points[key] = ps
	return ps, nil
}

// newBasis registers a basis seeded with the point's fingerprint.
func (s *Session) newBasis(contributor string, fp core.Fingerprint) int {
	b := &basis{
		id:          len(s.bases),
		samples:     make(map[int]float64, len(fp)),
		contributor: make(map[int]string, len(fp)),
	}
	for k, v := range fp {
		b.samples[k] = v
		b.contributor[k] = contributor
	}
	s.bases = append(s.bases, b)
	// The store's basis payload is the live sample pool.
	if _, err := s.store.Add(fp, contributor, b); err != nil {
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
	ps, ok := s.points[p.Key()]
	if !ok {
		return stats.Summary{}, false
	}
	b := s.bases[ps.basisID]
	acc := stats.NewAccumulator()
	ids := make([]int, 0, len(b.samples))
	for id := range b.samples {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		acc.Add(ps.mapping.Apply(b.samples[id]))
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
	ps, err := s.ensurePoint(s.focus)
	if err != nil {
		return 0, nil, err
	}
	task := s.taskHeuristic()
	s.taskTurn++
	switch task {
	case TaskRefinement:
		s.refine(ps)
		s.stats.Refinements++
		return task, ps.point.Clone(), nil
	case TaskValidation:
		s.validate(ps)
		s.stats.Validations++
		return task, ps.point.Clone(), nil
	default:
		np := s.explore(ps)
		s.stats.Explorations++
		return task, np, nil
	}
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
		for {
			_, inBasis := b.samples[id]
			_, inPoint := ps.drawn[id]
			if !inBasis && !inPoint {
				break
			}
			id++
		}
		ids = append(ids, id)
		id++
	}
	vals := s.drawBatch(ps.point, ids)
	s.stats.Evaluations += len(ids)
	for k, id := range ids {
		ps.drawn[id] = vals[k]
		b.samples[id] = inv.Apply(vals[k])
		b.contributor[id] = ps.point.Key()
	}
}

// validate reproduces up to BatchSize basis samples contributed by
// other points. A reproduced sample that disagrees with the mapped
// basis value invalidates the mapping: the point detaches onto its own
// basis built from everything it has drawn directly (§5 "if the new
// points do not match the values mapped from the basis distribution,
// Jigsaw finds or creates a new basis distribution"). The batch draws
// as one block; draws past the first mismatch are dropped, so the
// point keeps, and the counters count, only the samples compared.
func (s *Session) validate(ps *pointState) {
	b := s.bases[ps.basisID]
	key := ps.point.Key()
	ids := make([]int, 0, len(b.samples))
	for id := range b.samples {
		if b.contributor[id] != key && !ps.validated[id] {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	if len(ids) > s.opts.BatchSize {
		ids = ids[:s.opts.BatchSize]
	}
	if len(ids) == 0 {
		// Nothing foreign to validate; spend the tick refining.
		s.refine(ps)
		return
	}
	vals := s.drawBatch(ps.point, ids)
	for k, id := range ids {
		v := vals[k]
		ps.drawn[id] = v
		ps.validated[id] = true
		s.stats.Evaluations++
		if !core.ApproxEqual(v, ps.mapping.Apply(b.samples[id]), s.opts.Tolerance) {
			s.rebind(ps)
			return
		}
	}
}

// rebind detaches a point whose mapping failed validation: its own
// drawn samples become a fresh basis.
func (s *Session) rebind(ps *pointState) {
	s.stats.Rebinds++
	fp := make(core.Fingerprint, s.opts.FingerprintLen)
	copy(fp, ps.fingerprint)
	id := s.newBasis(ps.point.Key(), fp)
	b := s.bases[id]
	for sid, v := range ps.drawn {
		b.samples[sid] = v
		b.contributor[sid] = ps.point.Key()
	}
	ps.basisID = id
	ps.mapping = core.Identity()
	ps.validated = map[int]bool{}
}

// explore initializes (or refines) a neighbor of the focus, returning
// the point worked on. Preference: uninitialized neighbors first, then
// the neighbor with the smallest basis pool.
func (s *Session) explore(ps *pointState) param.Point {
	neighbors := s.space.Neighbors(ps.point)
	var target param.Point
	for _, n := range neighbors {
		if _, seen := s.points[n.Key()]; !seen {
			target = n
			break
		}
	}
	if target == nil {
		best := -1
		for _, n := range neighbors {
			nps := s.points[n.Key()]
			size := len(s.bases[nps.basisID].samples)
			if best < 0 || size < best {
				best = size
				target = n
			}
		}
	}
	if target == nil {
		// Isolated point (single-point space): refine instead.
		s.refine(ps)
		return ps.point.Clone()
	}
	nps, err := s.ensurePoint(target)
	if err == nil && len(nps.drawn) >= s.opts.FingerprintLen {
		// Already fingerprinted: extend its basis a little.
		s.refine(nps)
	}
	return target.Clone()
}
