package exec

import (
	"slices"

	"jigsaw/internal/mc"
)

// ColumnSweep sweeps scenario columns through the Monte Carlo engine
// for OPTIMIZE constraints and GRAPH series. Each distinct column is an
// output of one row evaluator, and the engine keeps one basis store
// per output: different columns are different stochastic functions, so
// a basis of one must never answer for another. The columns are swept
// jointly (Engine.SweepStream): each sampled row of the scenario is
// evaluated once and feeds every column. The engine persists across
// calls, so reuse spans all of them; an OPTIMIZE streams its whole
// (group × sweep) space through one call, and reuse across that space
// is where the two-orders-of-magnitude wins of §6.2 come from.
type ColumnSweep struct {
	// rows holds one row slot (an output) per distinct column, in the
	// order the columns first appear.
	rows columns
	eng  *mc.Engine
	// column maps each requested name, by position, to its distinct
	// column.
	column []int
	// stats sums the engine's per-call statistics over every call.
	stats mc.SweepStats
}

// SweepColumns builds the sweep of the named columns. A name may
// repeat; its column is swept once.
func (s *Scenario) SweepColumns(names []string, opts mc.Options) (*ColumnSweep, error) {
	eng, err := mc.New(opts)
	if err != nil {
		return nil, err
	}
	cs := &ColumnSweep{rows: columns{s: s}, eng: eng, column: make([]int, len(names))}
	for i, name := range names {
		if j := slices.Index(names[:i], name); j >= 0 {
			cs.column[i] = cs.column[j]
			continue
		}
		slot, err := s.column(name)
		if err != nil {
			return nil, err
		}
		cs.column[i] = len(cs.rows.slots)
		cs.rows.slots = append(cs.rows.slots, slot)
	}
	return cs, nil
}

// Stream sweeps each distinct column at points 0 to n−1, value rows of
// the scenario's Space that row returns, in one joint sweep on the
// engine's workers, and hands emit each point's results in enumeration
// order, one per name given to SweepColumns; see mc.Engine.SweepStream
// for the row and emit contracts.
func (cs *ColumnSweep) Stream(n int, row func(i int, dst []float64) []float64, emit func(i int, res []mc.PointResult)) error {
	if len(cs.rows.slots) == 0 { // an OPTIMIZE without WHERE
		return nil
	}
	named := make([]mc.PointResult, len(cs.column))
	st, err := cs.eng.SweepStream(&cs.rows, len(cs.rows.slots), n, row, func(i int, res []mc.PointResult) {
		for j, c := range cs.column {
			named[j] = res[c]
		}
		emit(i, named)
	})
	if err != nil {
		return err
	}
	cs.stats.Add(st)
	return nil
}

// Stats returns the reuse accounting summed over every Stream so far.
// Points counts column-points swept: each distinct column once per
// point.
func (cs *ColumnSweep) Stats() mc.SweepStats { return cs.stats }
