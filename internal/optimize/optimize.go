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

// batchGroups is the number of whole groups one ColumnSweep.Sweep call
// evaluates. A sweep call pays four phase barriers, so one call per
// 27-point group leaves workers idle; a batch of groups amortizes
// them. Results cannot depend on it: phase B visits the points in
// enumeration order whatever the batch boundaries are (see DESIGN.md,
// "Deterministic sweep"). It is fixed, not tied to Workers, so a run
// sweeps the same batches at every worker count. Larger batches wait
// less at barriers but keep more of a batch live (its prefixes,
// batchGroups × 27 points × 74 rows at fig1's scale, its points and
// its results): on fig1, 16 groups answered 9% faster than 4 but
// raised the peak resident set by 9%, where 4 left it within noise.
const batchGroups = 4

// Run executes stmt against the compiled scenario.
func Run(s *exec.Scenario, stmt *sqlparse.OptimizeStmt, opts mc.Options) (*Result, error) {
	q, err := newQuery(s, stmt, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Groups: q.groups.Size()}
	per, d := q.sweeps.Size(), len(s.Space.Decls())
	// A batch's value rows are refilled for every batch: the sweep
	// keeps no row past its call, and a batch's results are aggregated
	// before the next batch overwrites them. A row's swept values
	// depend only on its place in its group, so they are written once.
	batch := make([][]float64, min(batchGroups, res.Groups)*per)
	var vals []float64
	for i := range batch {
		batch[i] = make([]float64, d)
		vals = q.sweeps.Values(i%per, vals)
		scatter(batch[i], q.sweepPos, vals)
	}
	best := -1
	for first := 0; first < res.Groups; first += batchGroups {
		n := min(batchGroups, res.Groups-first)
		for gi := range n {
			vals = q.groups.Values(first+gi, vals)
			for _, row := range batch[gi*per : (gi+1)*per] {
				scatter(row, q.groupPos, vals)
			}
		}
		swept, err := q.sweep.Sweep(batch[:n*per])
		if err != nil {
			return nil, err
		}
		// Each group's slice of the results aggregates in enumeration
		// order; the earliest of equally good feasible groups is kept.
		for gi := range n {
			values, ok := q.score(swept, gi*per, (gi+1)*per)
			if !ok {
				continue
			}
			res.Feasible++
			if g := first + gi; best < 0 || q.better(g, best) {
				best, res.ConstraintValues = g, values
			}
		}
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
	for i, c := range stmt.Constraints {
		cols[i] = c.Column
	}
	if q.sweep, err = s.SweepColumns(cols, opts); err != nil {
		return nil, err
	}
	return q, nil
}

// score aggregates one group's swept results — entries lo to hi−1 of
// every constraint's slice — into each constraint's value, and reports
// whether the group satisfies them all.
func (q *query) score(swept [][]mc.PointResult, lo, hi int) ([]float64, bool) {
	values := make([]float64, len(q.stmt.Constraints))
	ok := true
	for ci, c := range q.stmt.Constraints {
		agg := newOuterAgg(c.Outer)
		for _, pr := range swept[ci][lo:hi] {
			metric := pr.Summary.Mean
			if c.Metric == sqlparse.MetricStdDev {
				metric = pr.Summary.StdDev
			}
			agg.add(metric)
		}
		values[ci] = agg.result()
		ok = ok && satisfies(values[ci], c.Op, c.Bound)
	}
	return values, ok
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

func newOuterAgg(kind string) *outerAgg { return &outerAgg{kind: kind} }

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
