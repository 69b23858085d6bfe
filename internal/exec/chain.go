package exec

import (
	"errors"
	"fmt"

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
	// fixed binds the scenario's remaining (non-driver) parameters.
	fixed param.Point
	// outputIdx and chainIdx locate the columns in the row buffer.
	outputIdx, chainIdx int
	// outputCol names the scalar the chain reports.
	outputCol string
}

// NewScenarioChain builds the chain for the scenario's single CHAIN
// declaration. outputCol selects the reported column (the "interesting
// output" of §4.2, demand in Fig. 5); fixed must bind every declared
// parameter other than the driver and the chain.
func NewScenarioChain(s *Scenario, outputCol string, fixed param.Point) (*ScenarioChain, error) {
	chains := s.Space.Chains()
	if len(chains) == 0 {
		return nil, errors.New("exec: scenario has no CHAIN parameter")
	}
	if len(chains) > 1 {
		return nil, errors.New("exec: multiple CHAIN parameters are not supported")
	}
	decl := chains[0]
	chainIdx := -1
	outputIdx := -1
	for i, c := range s.Columns {
		if c == decl.ChainColumn {
			chainIdx = i
		}
		if c == outputCol {
			outputIdx = i
		}
	}
	if chainIdx < 0 {
		return nil, fmt.Errorf("exec: chain column %q is not produced by the scenario", decl.ChainColumn)
	}
	if outputIdx < 0 {
		return nil, fmt.Errorf("exec: output column %q is not produced by the scenario", outputCol)
	}
	if _, ok := s.Space.Decl(decl.DriverName); !ok {
		return nil, fmt.Errorf("exec: chain driver @%s is not declared", decl.DriverName)
	}
	for _, d := range s.Space.Decls() {
		if _, ok := fixed[d.Name]; !ok && d.Name != decl.DriverName {
			return nil, fmt.Errorf("exec: chain requires a fixed value for @%s", d.Name)
		}
	}
	return &ScenarioChain{
		scenario:  s,
		decl:      decl,
		fixed:     fixed.Clone(),
		outputIdx: outputIdx,
		chainIdx:  chainIdx,
		outputCol: outputCol,
	}, nil
}

// Initial implements markov.Chain: state = (chain initial value, zero
// output).
func (c *ScenarioChain) Initial() markov.State {
	return markov.State{c.decl.Initial, 0}
}

// Step implements markov.Chain.
func (c *ScenarioChain) Step(step int, prev markov.State, r *rng.Rand) markov.State {
	p := c.fixed.With(c.decl.DriverName, float64(step))
	p[c.decl.Name] = prev[0] // chain parameter = fed-back value
	v := make([]float64, c.scenario.RowLen())
	c.scenario.BindRow(p, v)
	c.scenario.FillRow(r, v)
	return markov.State{v[c.chainIdx], v[c.outputIdx]}
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
