package exec

import (
	"errors"
	"fmt"
	"slices"

	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/sqlparse"
)

// Series is one plotted line of a GRAPH query: (X[i], Y[i]) points in
// X order, plus the display style tokens from the WITH clause.
type Series struct {
	Label  string
	Metric sqlparse.MetricKind
	Column string
	Style  []string
	X, Y   []float64
}

// GraphResult is the evaluated GRAPH statement: the data behind
// Fig. 2's display.
type GraphResult struct {
	Over   string
	Series []Series
	// Stats reports fingerprint reuse during evaluation.
	Stats mc.SweepStats
}

// RunGraph evaluates a GRAPH statement over the scenario: the Over
// parameter is swept across its domain while fixed binds every other
// enumerable parameter. One stream of a ColumnSweep over the series'
// columns provides fingerprint reuse along the domain.
func RunGraph(s *Scenario, g *sqlparse.GraphStmt, fixed param.Point, opts mc.Options) (*GraphResult, error) {
	if g == nil {
		return nil, errors.New("exec: nil GRAPH statement")
	}
	over, ok := s.Space.Position(g.Over)
	if !ok {
		return nil, fmt.Errorf("exec: GRAPH OVER @%s: not an enumerable parameter", g.Over)
	}
	vals, err := s.fixedRow(fixed, g.Over, "GRAPH")
	if err != nil {
		return nil, err
	}

	cols := make([]string, len(g.Series))
	for i, series := range g.Series {
		cols[i] = series.Column
	}
	sweep, err := s.SweepColumns(cols, opts)
	if err != nil {
		return nil, err
	}
	domain := s.Space.Decls()[over].Domain()
	res := &GraphResult{Over: g.Over}
	for _, series := range g.Series {
		res.Series = append(res.Series, Series{
			Label:  fmt.Sprintf("%s %s", series.Metric, series.Column),
			Metric: series.Metric,
			Column: series.Column,
			Style:  series.Style,
			X:      slices.Clone(domain),
			Y:      make([]float64, len(domain)),
		})
	}
	// Point j is the fixed row with the swept parameter at domain[j].
	row := func(j int, dst []float64) []float64 {
		dst = append(dst, vals...)
		dst[over] = domain[j]
		return dst
	}
	err = sweep.Stream(len(domain), row, func(j int, pr []mc.PointResult) {
		for i := range res.Series {
			out := &res.Series[i]
			if out.Metric == sqlparse.MetricStdDev {
				out.Y[j] = pr[i].Summary.StdDev
			} else {
				out.Y[j] = pr[i].Summary.Mean
			}
		}
	})
	if err != nil {
		return nil, err
	}
	res.Stats = sweep.Stats()
	return res, nil
}
