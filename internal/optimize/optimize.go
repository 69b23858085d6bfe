// Package optimize implements Jigsaw's batch mode (Figs. 1 and 3): the
// Parameter Enumerator walks the full cartesian space of grouped
// parameter values; for each group the remaining parameters are swept,
// per-point output metrics are estimated through the Monte Carlo
// engine (with fingerprint reuse), constraints aggregate the swept
// metrics, and the Selector picks the feasible group that best
// satisfies the lexicographic goals.
package optimize

import (
	"errors"
	"fmt"
	"slices"

	"jigsaw/internal/exec"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/sqlparse"
)

// Result is the outcome of an OPTIMIZE query.
type Result struct {
	// Chosen is the selected grouped-parameter valuation; nil when no
	// group satisfies the constraints.
	Chosen param.Point
	// ConstraintValues holds, for the chosen group, each constraint's
	// aggregated metric (in statement order).
	ConstraintValues []float64
	// Feasible counts groups satisfying all constraints.
	Feasible int
	// Groups counts enumerated groups.
	Groups int
	// PointsEvaluated counts (group × sweep) points swept per distinct
	// constraint column; it equals Stats.Points.
	PointsEvaluated int
	// Stats aggregates the reuse accounting of the constraint columns'
	// ColumnSweep.
	Stats mc.SweepStats
}

// Run executes stmt against the compiled scenario. It streams the
// whole (group × sweep) space through one sweep of the constraint
// columns, point i being sweep point i mod per of group i / per, and
// scores each group when its last point is emitted; the earliest of
// equally good feasible groups is kept.
func Run(s *exec.Scenario, stmt *sqlparse.OptimizeStmt, opts mc.Options) (*Result, error) {
	q, err := newQuery(s, stmt, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Groups: q.groups.Size()}
	per, d := q.sweeps.Size(), len(s.Space.Decls())
	// A point's swept values depend only on its place in its group, so
	// they are decoded once; a group's are decoded when the row of its
	// first point is built.
	swept := make([][]float64, per)
	for j := range swept {
		swept[j] = q.sweeps.Values(j, nil)
	}
	group, groupVals := -1, []float64(nil)
	row := func(i int, dst []float64) []float64 {
		if g := i / per; g != group {
			group, groupVals = g, q.groups.Values(g, groupVals)
		}
		dst = slices.Grow(dst, d)[:d]
		scatter(dst, q.groupPos, groupVals)
		scatter(dst, q.sweepPos, swept[i%per])
		return dst
	}
	best := -1
	err = q.sweep.Stream(res.Groups*per, row, func(i int, pr []mc.PointResult) {
		q.add(pr)
		if i%per != per-1 {
			return
		}
		values, ok := q.score()
		if !ok {
			return
		}
		res.Feasible++
		if g := i / per; best < 0 || q.better(g, best) {
			best, res.ConstraintValues = g, slices.Clone(values)
		}
	})
	if err != nil {
		return nil, err
	}
	if best >= 0 {
		res.Chosen = q.groups.Point(best)
	}
	res.Stats = q.sweep.Stats()
	res.PointsEvaluated = res.Stats.Points
	return res, nil
}

// query is a validated OPTIMIZE statement: the grouped parameters'
// space, the swept parameters' space, where their values go in the
// scenario's value rows, and the sweep of the constraint columns.
type query struct {
	stmt           *sqlparse.OptimizeStmt
	groups, sweeps *param.Space
	// groupPos and sweepPos place the groups' and sweeps' values in a
	// scenario value row; goalPos places each goal in a group's values.
	groupPos, sweepPos, goalPos []int
	sweep                       *exec.ColumnSweep
	// aggs aggregates each constraint's metric over the current
	// group's points, and values holds score's result.
	aggs   []outerAgg
	values []float64
	// a and b are better's scratch value rows.
	a, b []float64
}

// scatter writes vals[k] to row[pos[k]] for each k.
func scatter(row []float64, pos []int, vals []float64) {
	for k, p := range pos {
		row[p] = vals[k]
	}
}

// newQuery checks stmt against the scenario and partitions its
// declared parameters into grouped and swept.
func newQuery(s *exec.Scenario, stmt *sqlparse.OptimizeStmt, opts mc.Options) (*query, error) {
	if stmt == nil {
		return nil, errors.New("optimize: nil statement")
	}
	if s.Into != "" && stmt.From != s.Into {
		return nil, fmt.Errorf("optimize: FROM %s does not match scenario results table %s",
			stmt.From, s.Into)
	}
	if len(stmt.Goals) == 0 {
		return nil, errors.New("optimize: no FOR goals")
	}
	if len(stmt.Constraints) == 0 {
		return nil, errors.New("optimize: no WHERE constraints; every group is trivially optimal")
	}

	// Partition declared parameters into grouped and swept.
	grouped := map[string]bool{}
	for _, g := range stmt.GroupBy {
		grouped[g] = true
	}
	// Goals must range over grouped parameters (the paper groups by
	// every parameter it optimizes).
	for _, g := range stmt.Goals {
		if !grouped[g.Param] {
			return nil, fmt.Errorf("optimize: goal parameter @%s is not in GROUP BY", g.Param)
		}
	}
	q := &query{stmt: stmt}
	var groupDecls, sweepDecls []param.Decl
	for i, d := range s.Space.Decls() {
		if grouped[d.Name] {
			groupDecls = append(groupDecls, d)
			q.groupPos = append(q.groupPos, i)
		} else {
			sweepDecls = append(sweepDecls, d)
			q.sweepPos = append(q.sweepPos, i)
		}
	}
	for g := range grouped {
		if _, ok := s.Space.Position(g); !ok {
			return nil, fmt.Errorf("optimize: GROUP BY references %q, not an enumerable parameter", g)
		}
	}
	for _, c := range stmt.Constraints {
		if !s.HasColumn(c.Column) {
			return nil, fmt.Errorf("optimize: constraint references unknown column %q", c.Column)
		}
	}

	var err error
	if q.groups, err = param.NewSpace(groupDecls...); err != nil {
		return nil, err
	}
	if q.sweeps, err = param.NewSpace(sweepDecls...); err != nil {
		return nil, err
	}
	for _, g := range stmt.Goals { // grouped, so enumerable
		pos, _ := q.groups.Position(g.Param)
		q.goalPos = append(q.goalPos, pos)
	}

	cols := make([]string, len(stmt.Constraints))
	q.aggs = make([]outerAgg, len(stmt.Constraints))
	q.values = make([]float64, len(stmt.Constraints))
	for i, c := range stmt.Constraints {
		cols[i] = c.Column
		q.aggs[i] = outerAgg{kind: c.Outer}
	}
	if q.sweep, err = s.SweepColumns(cols, opts); err != nil {
		return nil, err
	}
	return q, nil
}

// add folds one point's results, one per constraint, into the
// current group's aggregates.
func (q *query) add(res []mc.PointResult) {
	for ci, c := range q.stmt.Constraints {
		metric := res[ci].Summary.Mean
		if c.Metric == sqlparse.MetricStdDev {
			metric = res[ci].Summary.StdDev
		}
		q.aggs[ci].add(metric)
	}
}

// score returns each constraint's value over the points added since
// the last score, and whether the group they make up satisfies every
// constraint, and starts the next group. The values are valid until the
// next score.
func (q *query) score() ([]float64, bool) {
	ok := true
	for ci, c := range q.stmt.Constraints {
		q.values[ci] = q.aggs[ci].result()
		q.aggs[ci] = outerAgg{kind: c.Outer}
		ok = ok && satisfies(q.values[ci], c.Op, c.Bound)
	}
	return q.values, ok
}

// better reports whether group a beats group b under the
// lexicographic goals.
func (q *query) better(a, b int) bool {
	q.a, q.b = q.groups.Values(a, q.a), q.groups.Values(b, q.b)
	for i, g := range q.stmt.Goals {
		av, bv := q.a[q.goalPos[i]], q.b[q.goalPos[i]]
		if av == bv {
			continue
		}
		if g.Maximize {
			return av > bv
		}
		return av < bv
	}
	return false
}

// satisfies applies a constraint comparison.
func satisfies(v float64, op string, bound float64) bool {
	switch op {
	case "<":
		return v < bound
	case "<=":
		return v <= bound
	case ">":
		return v > bound
	case ">=":
		return v >= bound
	default:
		return false
	}
}

// outerAgg aggregates a per-point metric across the swept space.
type outerAgg struct {
	kind string
	n    int
	sum  float64
	best float64
}

func (a *outerAgg) add(v float64) {
	if a.n == 0 {
		a.best = v
	} else {
		switch a.kind {
		case "MAX":
			if v > a.best {
				a.best = v
			}
		case "MIN":
			if v < a.best {
				a.best = v
			}
		}
	}
	a.sum += v
	a.n++
}

func (a *outerAgg) result() float64 {
	if a.n == 0 {
		return 0
	}
	if a.kind == "AVG" {
		return a.sum / float64(a.n)
	}
	return a.best
}
