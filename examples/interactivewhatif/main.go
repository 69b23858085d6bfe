// Interactive what-if exploration — the paper's §5 (Fuzzy Prophet).
//
// An executive drags a purchase-date slider and expects immediate,
// progressively refining risk estimates. This example scripts such a
// session: it focuses a sequence of points, runs the Algorithm 5
// pick–evaluate–update loop between "user actions", and shows how
// fingerprint reuse makes the second and later points nearly free.
//
//	go run ./examples/interactivewhatif
package main

import (
	"fmt"
	"log"

	"jigsaw"
)

func main() {
	// The model under exploration: weekly capacity given one purchase
	// date. Moving the purchase date is the slider.
	capacity := jigsaw.NewCapacityModel()
	week, _ := jigsaw.RangeParam("week", 0, 52, 1)
	purchase, _ := jigsaw.RangeParam("purchase", 0, 52, 4)
	fixed2, _ := jigsaw.SetParam("purchase2", 99) // second purchase disabled
	space, err := jigsaw.NewSpace(week, purchase, fixed2)
	if err != nil {
		log.Fatal(err)
	}
	eval, err := jigsaw.BindBox(capacity, space, "week", "purchase", "purchase2")
	if err != nil {
		log.Fatal(err)
	}

	sess, err := jigsaw.NewSession(eval, jigsaw.SessionOptions{BatchSize: 10})
	if err != nil {
		log.Fatal(err)
	}

	show := func(p jigsaw.Point) {
		sum, ok := sess.Estimate(p)
		if !ok {
			fmt.Printf("  %v: no estimate yet\n", p)
			return
		}
		ci, _ := sum.ConfidenceInterval(0.95)
		fmt.Printf("  week=%2.0f purchase=%2.0f  E[capacity] = %6.1f ± %.2f  (%d samples)\n",
			p.MustGet("week"), p.MustGet("purchase"), sum.Mean, ci, sum.N)
	}

	// The user inspects week 30 with a purchase at week 8…
	focus := jigsaw.Point{"week": 30, "purchase": 8, "purchase2": 99}
	if err := sess.SetFocus(focus); err != nil {
		log.Fatal(err)
	}
	fmt.Println("focus week=30, purchase=8 — initial guess after one fingerprint:")
	show(focus)

	// …waits a moment (the engine refines, validates, explores)…
	for i := 0; i < 30; i++ {
		if _, _, err := sess.Tick(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nafter 30 background ticks:")
	show(focus)

	// …then drags the slider to purchase=24. The new point maps onto
	// the accumulated basis and starts sharp.
	before := sess.Stats().Evaluations
	focus2 := jigsaw.Point{"week": 30, "purchase": 24, "purchase2": 99}
	if err := sess.SetFocus(focus2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nslider moved to purchase=24 (cost: %d model invocations):\n",
		sess.Stats().Evaluations-before)
	show(focus2)

	for i := 0; i < 15; i++ {
		if _, _, err := sess.Tick(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nafter 15 more ticks (neighbors prefetched by exploration):")
	show(focus2)
	show(jigsaw.Point{"week": 30, "purchase": 20, "purchase2": 99})
	show(jigsaw.Point{"week": 30, "purchase": 28, "purchase2": 99})

	st := sess.Stats()
	fmt.Printf("\nsession: %d evaluations, %d bases, tasks r/v/e = %d/%d/%d, rebinds = %d\n",
		st.Evaluations, st.Bases, st.Refinements, st.Validations, st.Explorations, st.Rebinds)
}
