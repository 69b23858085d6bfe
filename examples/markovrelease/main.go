// Markov release planning — the paper's Fig. 5 scenario.
//
// Demand drives the feature release date (management ships the feature
// once demand crosses a threshold), and the release date feeds back
// into subsequent demand: a cyclic dependency that forces step-by-step
// Markov evaluation. Jigsaw's MarkovJump (Algorithm 4) synthesizes a
// non-Markovian estimator and skips the regions where the chain has no
// effective Markovian dependency.
//
//	go run ./examples/markovrelease
package main

import (
	"fmt"
	"log"
	"time"

	"jigsaw"
)

const scenario = `
DECLARE PARAMETER @current_week AS RANGE 0 TO 104 STEP BY 1;
DECLARE PARAMETER @release_week AS CHAIN release_week
    FROM @current_week : @current_week - 1
    INITIAL VALUE 104;

SELECT ReleaseWeekModel(@current_week, demand, @release_week) AS release_week,
       demand
FROM (SELECT DemandModel(@current_week, @release_week) AS demand)
INTO results
`

func main() {
	script, err := jigsaw.Parse(scenario)
	if err != nil {
		log.Fatal(err)
	}

	reg := jigsaw.NewRegistry()
	if err := reg.Register(jigsaw.NewDemandModel()); err != nil {
		log.Fatal(err)
	}
	// ReleaseWeekModel: once weekly demand exceeds 55 cores, the
	// feature ships four weeks later; afterwards the decision sticks.
	release := jigsaw.BoxFunc{
		FuncName: "ReleaseWeekModel",
		NArgs:    3,
		Fn: func(args []float64, r *jigsaw.Rand) float64 {
			week, demand, current := args[0], args[1], args[2]
			if current < 104 {
				return current // already scheduled
			}
			if demand > 55 {
				return week + 4
			}
			return 104
		},
	}
	if err := reg.Register(release); err != nil {
		log.Fatal(err)
	}

	compiled, err := jigsaw.Compile(script, reg)
	if err != nil {
		log.Fatal(err)
	}
	chain, err := jigsaw.NewScenarioChain(compiled, "demand", jigsaw.Point{})
	if err != nil {
		log.Fatal(err)
	}

	opts := jigsaw.JumpOptions{Instances: 1000, FingerprintLen: 10}
	const target = 104

	start := time.Now()
	naive, naiveStats, err := jigsaw.MarkovNaive(chain, target, opts)
	if err != nil {
		log.Fatal(err)
	}
	naiveTime := time.Since(start)

	start = time.Now()
	jump, jumpStats, err := jigsaw.MarkovJump(chain, target, opts)
	if err != nil {
		log.Fatal(err)
	}
	jumpTime := time.Since(start)

	meanOf := func(xs []float64) float64 {
		acc := jigsaw.NewAccumulator()
		acc.AddAll(xs)
		return acc.Mean()
	}
	released := func(states []jigsaw.ChainState) int {
		n := 0
		for _, s := range states {
			if s[0] < target {
				n++
			}
		}
		return n
	}

	fmt.Printf("two-year weekly chain, %d Monte Carlo instances\n\n", opts.Instances)
	fmt.Printf("naive  : %8v  (%d step invocations)\n", naiveTime, naiveStats.TotalStepInvocations())
	fmt.Printf("jigsaw : %8v  (%d step invocations, %d estimator regions, %d jumps)\n\n",
		jumpTime, jumpStats.TotalStepInvocations(), jumpStats.Regions, jumpStats.Rebuilds)

	fmt.Printf("E[demand] at week %d : naive %.1f vs jigsaw %.1f\n",
		target, meanOf(jigsaw.ChainOutputs(chain, naive)), meanOf(jigsaw.ChainOutputs(chain, jump)))
	fmt.Printf("instances with a scheduled release: naive %d vs jigsaw %d (of %d)\n",
		released(naive), released(jump), opts.Instances)
}
