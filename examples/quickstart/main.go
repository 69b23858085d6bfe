// Quickstart: define a stochastic black-box model, sweep a parameter
// space with fingerprint reuse, and compare against the naive
// generate-everything baseline.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"jigsaw"
)

func main() {
	// A weekly demand forecast: Gaussian with drift and widening
	// uncertainty — the simplest shape of the paper's Algorithm 1.
	demand := jigsaw.BoxFunc{
		FuncName: "Demand",
		NArgs:    1,
		Fn: func(args []float64, r *jigsaw.Rand) float64 {
			week := args[0]
			return r.Normal(1.5*week, 0.1*week+1)
		},
	}
	week, err := jigsaw.RangeParam("week", 0, 259, 1) // five years, weekly
	if err != nil {
		log.Fatal(err)
	}
	space, err := jigsaw.NewSpace(week)
	if err != nil {
		log.Fatal(err)
	}
	eval, err := jigsaw.BindBox(demand, space, "week")
	if err != nil {
		log.Fatal(err)
	}

	run := func(reuse bool) (time.Duration, jigsaw.SweepStats, []jigsaw.PointResult) {
		eng, err := jigsaw.NewEngine(jigsaw.EngineOptions{
			Samples: 2000,
			Reuse:   reuse,
		})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		results, stats, err := eng.Sweep(eval)
		if err != nil {
			log.Fatal(err)
		}
		return time.Since(start), stats, results
	}

	naiveTime, _, naiveResults := run(false)
	jigsawTime, stats, results := run(true)

	fmt.Printf("parameter space: %d points × 2000 samples\n\n", space.Size())
	fmt.Printf("naive full evaluation : %v\n", naiveTime)
	fmt.Printf("jigsaw (fingerprints) : %v  (%.0fx speedup)\n",
		jigsawTime, naiveTime.Seconds()/jigsawTime.Seconds())
	fmt.Printf("basis distributions   : %d (of %d points; %d reused)\n\n",
		stats.Store.Bases, stats.Points, stats.Reused)

	fmt.Println("week   E[demand]   σ[demand]   (jigsaw vs naive mean)")
	for _, w := range []int{0, 52, 156, 259} {
		j := results[w].Summary
		n := naiveResults[w].Summary
		fmt.Printf("%4d   %9.2f   %9.2f   (Δ = %.2g)\n",
			w, j.Mean, j.StdDev, j.Mean-n.Mean)
	}
}
