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
// enumerable parameter. A ColumnSweep over the series' columns
// provides fingerprint reuse along the domain.
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
	batch := make([][]float64, len(domain))
	for j, x := range domain {
		batch[j] = slices.Clone(vals)
		batch[j][over] = x
	}
	swept, err := sweep.Sweep(batch)
	if err != nil {
		return nil, err
	}

	res := &GraphResult{Over: g.Over, Stats: sweep.Stats()}
	for i, series := range g.Series {
		out := Series{
			Label:  fmt.Sprintf("%s %s", series.Metric, series.Column),
			Metric: series.Metric,
			Column: series.Column,
			Style:  series.Style,
			X:      append([]float64(nil), domain...),
			Y:      make([]float64, len(swept[i])),
		}
		for j, pr := range swept[i] {
			if series.Metric == sqlparse.MetricStdDev {
				out.Y[j] = pr.Summary.StdDev
			} else {
				out.Y[j] = pr.Summary.Mean
			}
		}
		res.Series = append(res.Series, out)
	}
	return res, nil
}
