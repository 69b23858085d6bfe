// Command fuzzy-prophet is the interactive what-if exploration tool of
// §5 of the paper: an analyst-facing REPL over a compiled scenario in
// which parameter values are adjusted, estimates refine progressively
// in the background (Algorithm 5), and results render as ASCII charts
// (standing in for the Fig. 2 GUI).
//
// It pre-registers the models cmd/jigsaw does (jigsaw.NewStockRegistry,
// with UserSelection over cmd/jigsaw's default 2000 users), so it runs
// the same scripts.
//
// Usage:
//
//	fuzzy-prophet -query scenario.jsq [-column overload] [-samples-per-tick 10]
//
// REPL commands:
//
//	set <param> <value>   move a slider (changes the focus point)
//	tick [n]              run n background refinement iterations (default 30)
//	show                  print the focus estimate
//	graph                 render the scenario's GRAPH statement around the focus
//	stats                 session statistics
//	help, quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"jigsaw"
	"jigsaw/internal/chart"
)

func main() {
	var (
		queryPath = flag.String("query", "", "path to the .jsq scenario script (required)")
		column    = flag.String("column", "", "result column to explore (default: first column)")
		batch     = flag.Int("samples-per-tick", 10, "samples per background iteration")
		seed      = flag.Uint64("seed", 1, "master seed")
	)
	flag.Parse()
	if *queryPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*queryPath)
	if err != nil {
		fatal(err)
	}
	script, err := jigsaw.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	reg, err := jigsaw.NewStockRegistry(2000)
	if err != nil {
		fatal(err)
	}
	scenario, err := jigsaw.Compile(script, reg)
	if err != nil {
		fatal(err)
	}
	col := *column
	if col == "" {
		col = scenario.Columns[0]
	}
	eval, err := scenario.ColumnEval(col)
	if err != nil {
		fatal(err)
	}
	sess, err := jigsaw.NewSession(eval, jigsaw.SessionOptions{
		BatchSize:  *batch,
		MasterSeed: *seed,
	})
	if err != nil {
		fatal(err)
	}

	// Initial focus: first value of every domain.
	focus := jigsaw.Point{}
	for _, d := range scenario.Space.Decls() {
		focus[d.Name] = d.Domain()[0]
	}
	if err := sess.SetFocus(focus); err != nil {
		fatal(err)
	}

	fmt.Printf("fuzzy-prophet: exploring %q over %d parameter points\n", col, scenario.Space.Size())
	fmt.Printf("parameters: ")
	for i, d := range scenario.Space.Decls() {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("@%s=%g", d.Name, focus[d.Name])
	}
	fmt.Println("\ntype 'help' for commands")

	in := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("prophet> ")
		if !in.Scan() {
			break
		}
		fields := strings.Fields(in.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit", "q":
			return
		case "help":
			fmt.Println("set <param> <value> | tick [n] | show | graph | stats | quit")
		case "set":
			if len(fields) != 3 {
				fmt.Println("usage: set <param> <value>")
				continue
			}
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				fmt.Println("bad value:", err)
				continue
			}
			next := focus.With(strings.TrimPrefix(fields[1], "@"), v)
			if err := sess.SetFocus(next); err != nil {
				fmt.Println(err)
				continue
			}
			focus = next
			showEstimate(sess, focus, col)
		case "tick":
			n, ok := tickCount(fields[1:])
			if !ok {
				fmt.Println("usage: tick [n], n ≥ 1")
				continue
			}
			for i := 0; i < n; i++ {
				if _, _, err := sess.Tick(); err != nil {
					fmt.Println(err)
					break
				}
			}
			showEstimate(sess, focus, col)
		case "show":
			showEstimate(sess, focus, col)
		case "graph":
			renderGraph(sess, scenario, script, focus, col)
		case "stats":
			st := sess.Stats()
			fmt.Printf("evaluations=%d bases=%d refine/validate/explore=%d/%d/%d rebinds=%d\n",
				st.Evaluations, st.Bases, st.Refinements, st.Validations, st.Explorations, st.Rebinds)
		default:
			fmt.Printf("unknown command %q (try 'help')\n", fields[0])
		}
	}
}

// tickCount reads the optional count of a tick command: 30 without
// one, and ok = false unless the count is an integer ≥ 1.
func tickCount(args []string) (n int, ok bool) {
	if len(args) == 0 {
		return 30, true
	}
	n, err := strconv.Atoi(args[0])
	return n, err == nil && n >= 1
}

func showEstimate(sess *jigsaw.Session, focus jigsaw.Point, col string) {
	sum, ok := sess.Estimate(focus)
	if !ok {
		fmt.Println("no estimate yet; run 'tick'")
		return
	}
	ci, _ := sum.ConfidenceInterval(0.95)
	fmt.Printf("%s @ %v: E=%.4g σ=%.4g ±%.2g (95%%), %d samples\n",
		col, focus, sum.Mean, sum.StdDev, ci, sum.N)
}

// renderGraph sweeps the GRAPH statement's Over parameter using the
// session's cheap estimates where available.
func renderGraph(sess *jigsaw.Session, scenario *jigsaw.Scenario, script *jigsaw.Script, focus jigsaw.Point, col string) {
	over := ""
	if script.Graph != nil {
		over = script.Graph.Over
	} else {
		over = scenario.Space.Decls()[0].Name
	}
	pos, ok := scenario.Space.Position(over)
	if !ok {
		fmt.Printf("no sweepable parameter @%s\n", over)
		return
	}
	var xs, ys []float64
	for _, x := range scenario.Space.Decls()[pos].Domain() {
		p := focus.With(over, x)
		if err := sess.SetFocus(p); err != nil {
			continue
		}
		// A couple of ticks per point: enough for an initial guess.
		for i := 0; i < 3; i++ {
			if _, _, err := sess.Tick(); err != nil {
				break
			}
		}
		if sum, ok := sess.Estimate(p); ok {
			xs = append(xs, x)
			ys = append(ys, sum.Mean)
		}
	}
	// Restore the user's focus.
	if err := sess.SetFocus(focus); err == nil {
		fmt.Print(chart.Render([]chart.Series{
			{Label: fmt.Sprintf("E[%s] over @%s", col, over), X: xs, Y: ys},
		}, chart.Options{Height: 16}))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fuzzy-prophet:", err)
	os.Exit(1)
}
