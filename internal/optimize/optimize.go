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
	"maps"

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
	sweeps := q.sweeps.Points()
	per := len(sweeps)
	// A batch's point maps are refilled for every batch: the sweep
	// keeps no point past its call (a basis records its point's key),
	// and flush aggregates a batch's results before the next batch
	// overwrites them.
	batch := make([]param.Point, min(batchGroups, res.Groups)*per)
	for i := range batch {
		batch[i] = make(param.Point, len(s.Space.Decls()))
	}
	groups := make([]param.Point, 0, batchGroups)
	// flush sweeps the gathered groups in one call, then aggregates
	// each group's slice of the results in enumeration order; the
	// earliest of equally good feasible groups is kept.
	flush := func() error {
		swept, err := q.sweep.Sweep(batch[:len(groups)*per])
		if err != nil {
			return err
		}
		for gi, g := range groups {
			values, ok := q.score(swept, gi*per, (gi+1)*per)
			if !ok {
				continue
			}
			res.Feasible++
			if res.Chosen == nil || goalsBetter(stmt.Goals, g, res.Chosen) {
				res.Chosen, res.ConstraintValues = g, values
			}
		}
		groups = groups[:0]
		return nil
	}
	q.groups.Each(func(g param.Point) bool {
		for j, sp := range sweeps {
			p := batch[len(groups)*per+j]
			maps.Copy(p, g)
			maps.Copy(p, sp)
		}
		groups = append(groups, g)
		if len(groups) == batchGroups {
			err = flush()
		}
		return err == nil
	})
	if err == nil && len(groups) > 0 {
		err = flush()
	}
	if err != nil {
		return nil, err
	}
	res.Stats = q.sweep.Stats()
	res.PointsEvaluated = res.Stats.Points
	return res, nil
}

// query is a validated OPTIMIZE statement: the grouped parameters'
// space, the swept parameters' space, and the sweep of the constraint
// columns.
type query struct {
	stmt           *sqlparse.OptimizeStmt
	groups, sweeps *param.Space
	sweep          *exec.ColumnSweep
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
	var groupDecls, sweepDecls []param.Decl
	for _, d := range s.Space.Decls() {
		if grouped[d.Name] {
			groupDecls = append(groupDecls, d)
		} else {
			sweepDecls = append(sweepDecls, d)
		}
	}
	for g := range grouped {
		if _, ok := s.Space.Decl(g); !ok {
			return nil, fmt.Errorf("optimize: GROUP BY references undeclared parameter %q", g)
		}
	}
	for _, c := range stmt.Constraints {
		if !s.HasColumn(c.Column) {
			return nil, fmt.Errorf("optimize: constraint references unknown column %q", c.Column)
		}
	}

	groupSpace, err := param.NewSpace(groupDecls...)
	if err != nil {
		return nil, err
	}
	sweepSpace, err := param.NewSpace(sweepDecls...)
	if err != nil {
		return nil, err
	}

	cols := make([]string, len(stmt.Constraints))
	for i, c := range stmt.Constraints {
		cols[i] = c.Column
	}
	sweep, err := s.SweepColumns(cols, opts)
	if err != nil {
		return nil, err
	}
	return &query{stmt: stmt, groups: groupSpace, sweeps: sweepSpace, sweep: sweep}, nil
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

// goalsBetter reports whether a beats b under the lexicographic goals.
func goalsBetter(goals []sqlparse.Goal, a, b param.Point) bool {
	for _, g := range goals {
		av := a.MustGet(g.Param)
		bv := b.MustGet(g.Param)
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
