// Cloud capacity planning — the paper's running example (Fig. 1).
//
// An analyst wants the latest server purchase dates that keep the risk
// of running out of CPU cores below 2%: later purchases cost less in
// upkeep, earlier ones reduce overload risk. The scenario combines a
// demand forecast and a capacity model in the Jigsaw SQL dialect and
// solves the constrained optimization with the batch OPTIMIZE mode.
//
//	go run ./examples/cloudcapacity
package main

import (
	"fmt"
	"log"
	"time"

	"jigsaw"
)

const scenario = `
-- DEFINITION (Fig. 1 of the paper) --
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 2;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @feature_release AS SET (12, 36, 44);

SELECT DemandModel(@current_week, @feature_release)           AS demand,
       CapacityModel(@current_week, @purchase1, @purchase2)   AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END          AS overload
INTO results;

-- BATCH MODE --
OPTIMIZE SELECT @feature_release, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.02
GROUP BY feature_release, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2
`

func main() {
	script, err := jigsaw.Parse(scenario)
	if err != nil {
		log.Fatal(err)
	}

	// Models: the paper's Fig. 6 structures with demand scaled so the
	// forecast approaches cluster capacity within the planning year.
	reg := jigsaw.NewRegistry()
	demand := jigsaw.NewDemandModel()
	demand.BaseRate = 2.5
	demand.BaseVarRate = 1
	demand.FeatureRate = 0.3
	demand.FeatureVarRate = 0.3
	if err := reg.Register(demand); err != nil {
		log.Fatal(err)
	}
	if err := reg.Register(jigsaw.NewCapacityModel()); err != nil {
		log.Fatal(err)
	}

	compiled, err := jigsaw.Compile(script, reg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario: results(%v) over %d parameter points\n",
		compiled.Columns, compiled.Space.Size())

	start := time.Now()
	res, err := jigsaw.Optimize(compiled, script.Optimize, jigsaw.EngineOptions{
		Samples:           1000,
		Reuse:             true,
		ValidationSamples: 64, // guard the boolean overload column
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("\noptimized %d groups × %d swept weeks in %v\n",
		res.Groups, res.PointsEvaluated/res.Groups, elapsed)
	fmt.Printf("feasible groups: %d / %d\n", res.Feasible, res.Groups)
	fmt.Printf("fingerprint reuse: %d of %d evaluations (%d bases)\n\n",
		res.Stats.Reused, res.PointsEvaluated, res.Stats.Store.Bases)

	if res.Chosen == nil {
		fmt.Println("no purchase plan keeps overload risk below 2%")
		return
	}
	fmt.Println("optimal plan:")
	fmt.Printf("  purchase 1 week : %g\n", res.Chosen.MustGet("purchase1"))
	fmt.Printf("  purchase 2 week : %g\n", res.Chosen.MustGet("purchase2"))
	fmt.Printf("  feature release : week %g\n", res.Chosen.MustGet("feature_release"))
	fmt.Printf("  max overload risk over the year: %.4f (< 0.02)\n", res.ConstraintValues[0])
}
