package exec

import (
	"errors"
	"fmt"

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
// enumerable parameter. One engine per referenced column provides
// fingerprint reuse along the sweep.
func RunGraph(s *Scenario, g *sqlparse.GraphStmt, fixed param.Point, opts mc.Options) (*GraphResult, error) {
	if g == nil {
		return nil, errors.New("exec: nil GRAPH statement")
	}
	decl, ok := s.Space.Decl(g.Over)
	if !ok || decl.Kind == param.KindChain {
		return nil, fmt.Errorf("exec: GRAPH OVER @%s: not an enumerable parameter", g.Over)
	}
	// Validate fixed bindings cover the other parameters.
	for _, d := range s.Space.Decls() {
		if d.Name == g.Over {
			continue
		}
		if _, bound := fixed.Get(d.Name); !bound {
			return nil, fmt.Errorf("exec: GRAPH requires a fixed value for @%s", d.Name)
		}
	}

	domain := decl.Domain()
	res := &GraphResult{Over: g.Over}

	// One engine (and basis store) per distinct column keeps mappings
	// sound: different columns are different stochastic functions.
	engines := map[string]*mc.Engine{}
	evals := map[string]mc.PointEval{}
	for _, series := range g.Series {
		if _, ok := engines[series.Column]; ok {
			continue
		}
		ev, err := s.ColumnEval(series.Column)
		if err != nil {
			return nil, err
		}
		eng, err := mc.New(opts)
		if err != nil {
			return nil, err
		}
		engines[series.Column] = eng
		evals[series.Column] = ev
	}

	// The swept points are shared by every column's engine; each
	// engine walks them through its worker pool (Options.Workers) via
	// the deterministic batched sweep.
	batch := make([]param.Point, 0, len(domain))
	for _, x := range domain {
		batch = append(batch, fixed.With(g.Over, x))
	}
	type cell struct{ mean, std float64 }
	values := map[string][]cell{}
	for col, eng := range engines {
		prs, _, err := eng.SweepBatch(evals[col], batch)
		if err != nil {
			return nil, err
		}
		cells := make([]cell, 0, len(domain))
		for _, pr := range prs {
			cells = append(cells, cell{pr.Summary.Mean, pr.Summary.StdDev})
		}
		values[col] = cells
		st := eng.Stats(len(domain))
		res.Stats.Points += st.Points
		res.Stats.FullSimulations += st.FullSimulations
		res.Stats.Reused += st.Reused
	}

	for _, series := range g.Series {
		out := Series{
			Label:  fmt.Sprintf("%s %s", series.Metric, series.Column),
			Metric: series.Metric,
			Column: series.Column,
			Style:  series.Style,
			X:      append([]float64(nil), domain...),
		}
		cells := values[series.Column]
		out.Y = make([]float64, len(cells))
		for i, c := range cells {
			if series.Metric == sqlparse.MetricStdDev {
				out.Y[i] = c.std
			} else {
				out.Y[i] = c.mean
			}
		}
		res.Series = append(res.Series, out)
	}
	return res, nil
}
