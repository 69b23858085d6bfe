package exec

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"jigsaw/internal/core"
	"jigsaw/internal/markov"
	"jigsaw/internal/param"
	"jigsaw/internal/rng"
)

// ScenarioChain adapts a scenario with a CHAIN parameter (Fig. 5) to
// the markov.Chain interface: step t binds the driver parameter to t
// and the chain parameter to the fed-back column value of step
// t+offset (offset is −1 in Fig. 5), evaluates the scenario row, and
// carries (chain value, output value) as the per-instance state.
type ScenarioChain struct {
	scenario *Scenario
	decl     param.Decl
	// fixed is the value row of every step (see BindRow) but for the
	// driver's entry and the chain parameter's, the last; Step sets them.
	fixed  []float64
	driver int
	// outputIdx and chainIdx locate the columns in the row buffer.
	outputIdx, chainIdx int
	// rows lends each Step a *chainRow, so concurrent Steps stay safe
	// and a step allocates only the State it returns.
	rows sync.Pool
}

// chainRow is a Step's value row and scenario row.
type chainRow struct{ vals, row []float64 }

// NewScenarioChain builds the chain for the scenario's single CHAIN
// declaration. outputCol selects the reported column (the "interesting
// output" of §4.2, demand in Fig. 5); fixed must bind every declared
// parameter other than the driver and the chain, to any value, in its
// domain or not.
func NewScenarioChain(s *Scenario, outputCol string, fixed param.Point) (*ScenarioChain, error) {
	chains := s.Space.Chains()
	if len(chains) == 0 {
		return nil, errors.New("exec: scenario has no CHAIN parameter")
	}
	if len(chains) > 1 {
		return nil, errors.New("exec: multiple CHAIN parameters are not supported")
	}
	decl := chains[0]
	chainIdx := slices.Index(s.Columns, decl.ChainColumn)
	if chainIdx < 0 {
		return nil, fmt.Errorf("exec: chain column %q is not produced by the scenario", decl.ChainColumn)
	}
	outputIdx := slices.Index(s.Columns, outputCol)
	if outputIdx < 0 {
		return nil, fmt.Errorf("exec: output column %q is not produced by the scenario", outputCol)
	}
	driver, ok := s.Space.Position(decl.DriverName)
	if !ok {
		return nil, fmt.Errorf("exec: chain driver @%s is not an enumerable parameter", decl.DriverName)
	}
	vals, err := s.fixedRow(fixed, decl.DriverName, "chain")
	if err != nil {
		return nil, err
	}
	c := &ScenarioChain{
		scenario:  s,
		decl:      decl,
		fixed:     append(vals, 0), // the chain parameter follows the Decls
		driver:    driver,
		outputIdx: outputIdx,
		chainIdx:  chainIdx,
	}
	c.rows.New = func() any {
		return &chainRow{vals: slices.Clone(c.fixed), row: make([]float64, s.RowLen())}
	}
	return c, nil
}

// fixedRow returns fixed as a value row of the scenario's Space (see
// BindRow). Every enumerable parameter but free, whose value the
// caller sets, must be bound, to any value: a fixed value need not lie
// in its domain. A name the scenario declares as neither an
// enumerable nor a CHAIN parameter is an error, as it is for
// Space.Index: a misspelt name must not fall back to a default. what
// names the caller in errors.
func (s *Scenario) fixedRow(fixed param.Point, free, what string) ([]float64, error) {
	chains := s.Space.Chains()
	for name := range fixed {
		_, enumerable := s.Space.Position(name)
		if !enumerable && !slices.ContainsFunc(chains, func(d param.Decl) bool { return d.Name == name }) {
			return nil, fmt.Errorf("exec: %s fixes @%s, which the scenario does not declare", what, name)
		}
	}
	decls := s.Space.Decls()
	vals := make([]float64, len(decls))
	for i, d := range decls {
		v, ok := fixed[d.Name]
		if !ok && d.Name != free {
			return nil, fmt.Errorf("exec: %s requires a fixed value for @%s", what, d.Name)
		}
		vals[i] = v
	}
	return vals, nil
}

// Initial implements markov.Chain: state = (chain initial value, zero
// output).
func (c *ScenarioChain) Initial() markov.State {
	return markov.State{c.decl.Initial, 0}
}

// Step implements markov.Chain.
func (c *ScenarioChain) Step(step int, prev markov.State, r *rng.Rand) markov.State {
	b := c.rows.Get().(*chainRow)
	b.vals[c.driver] = float64(step)
	b.vals[len(b.vals)-1] = prev[0] // chain parameter = fed-back value
	c.scenario.BindRow(b.vals, b.row)
	c.scenario.FillRow(r, b.row)
	next := markov.State{b.row[c.chainIdx], b.row[c.outputIdx]}
	c.rows.Put(b)
	return next
}

// Output implements markov.Chain: the designated output column.
func (c *ScenarioChain) Output(s markov.State) float64 { return s[1] }

// ApplyMapping implements markov.Chain: the mapping acts on the
// continuous output; the fed-back chain value is discrete model state
// and is carried unchanged (§4.2's release-week example).
func (c *ScenarioChain) ApplyMapping(m core.Linear, s markov.State) markov.State {
	return markov.State{s[0], m.Apply(s[1])}
}

var _ markov.Chain = (*ScenarioChain)(nil)
