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

// Run executes stmt against the compiled scenario.
func Run(s *exec.Scenario, stmt *sqlparse.OptimizeStmt, opts mc.Options) (*Result, error) {
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

	res := &Result{Groups: groupSpace.Size()}
	type feasibleGroup struct {
		point  param.Point
		values []float64
	}
	var feasible []feasibleGroup

	var sweepErr error
	groupSpace.Each(func(g param.Point) bool {
		batch := make([]param.Point, 0, sweepSpace.Size())
		sweepSpace.Each(func(sp param.Point) bool {
			full := g.Clone()
			for k, v := range sp {
				full[k] = v
			}
			batch = append(batch, full)
			return true
		})
		swept, err := sweep.Sweep(batch)
		if err != nil {
			sweepErr = err
			return false
		}
		values := make([]float64, len(stmt.Constraints))
		ok := true
		for ci, c := range stmt.Constraints {
			agg := newOuterAgg(c.Outer)
			for _, pr := range swept[ci] {
				metric := pr.Summary.Mean
				if c.Metric == sqlparse.MetricStdDev {
					metric = pr.Summary.StdDev
				}
				agg.add(metric)
			}
			values[ci] = agg.result()
			ok = ok && satisfies(values[ci], c.Op, c.Bound)
		}
		if ok {
			feasible = append(feasible, feasibleGroup{point: g, values: values})
		}
		return true
	})
	if sweepErr != nil {
		return nil, sweepErr
	}

	res.Feasible = len(feasible)
	res.Stats = sweep.Stats()
	res.PointsEvaluated = res.Stats.Points

	if len(feasible) == 0 {
		return res, nil
	}
	best := feasible[0]
	for _, cand := range feasible[1:] {
		if goalsBetter(stmt.Goals, cand.point, best.point) {
			best = cand
		}
	}
	res.Chosen = best.point
	res.ConstraintValues = best.values
	return res, nil
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
