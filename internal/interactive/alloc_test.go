package interactive

import (
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/exec"
	"jigsaw/internal/param"
	"jigsaw/internal/sqlparse"
)

// figure1Source is the paper's Fig. 1 scenario.
const figure1Source = `
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @feature_release AS SET (12,36,44);
SELECT DemandModel(@current_week, @feature_release) AS demand,
       CapacityModel(@current_week, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
`

// TestDrawBatchAllocs pins drawBatch's allocation budget over a
// compiled scenario column: the batch's values, and nothing else,
// flat in the batch size. The binding, the generator and the output
// list are the session's, the ids go to the evaluator as they are, and
// the row fills in place.
func TestDrawBatchAllocs(t *testing.T) {
	script, err := sqlparse.Parse(figure1Source)
	if err != nil {
		t.Fatal(err)
	}
	reg := blackbox.NewRegistry()
	reg.MustRegister(blackbox.NewDemand())
	reg.MustRegister(blackbox.NewCapacity())
	scenario, err := exec.CompileScenario(script, reg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := scenario.ColumnEval("overload")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(ev, scenario.Space, Options{MasterSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := param.Point{"current_week": 50, "purchase1": 0, "purchase2": 4, "feature_release": 12}
	perBatch := func(n int) float64 {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		s.drawBatch(p, ids) // size the session's binding
		return testing.AllocsPerRun(20, func() { s.drawBatch(p, ids) })
	}
	const budget = 1
	small, large := perBatch(10), perBatch(100)
	if large > budget || large != small {
		t.Fatalf("drawBatch allocates %.1f per 10-sample batch and %.1f per 100-sample batch, budget %d flat", small, large, budget)
	}
}
