// Command jigsaw runs a Jigsaw scenario script (.jsq): parameter
// declarations, a SELECT ... INTO scenario, and either an OPTIMIZE
// statement (batch mode, Fig. 1 of the paper) or a GRAPH statement
// (interactive-mode data, rendered as an ASCII chart).
//
// The stock model suite (Fig. 6, jigsaw.NewStockRegistry) is
// pre-registered: DemandModel, CapacityModel, OverloadModel,
// UserSelection, SynthBasis.
//
// Usage:
//
//	jigsaw -query scenario.jsq [-samples 1000] [-m 10] [-seed 1]
//	       [-index array|norm|sid] [-validate 0] [-fix p=v,p2=v2]
//	       [-no-reuse] [-workers N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"jigsaw"
	"jigsaw/internal/chart"
)

func main() {
	var (
		queryPath = flag.String("query", "", "path to the .jsq scenario script (required)")
		samples   = flag.Int("samples", 1000, "Monte Carlo samples per parameter point")
		m         = flag.Int("m", 10, "fingerprint length")
		seed      = flag.Uint64("seed", 1, "master seed")
		indexKind = flag.String("index", "norm", "fingerprint index: array, norm or sid")
		validate  = flag.Int("validate", 0, "extra validation samples per fingerprint match")
		fix       = flag.String("fix", "", "fixed parameter values for GRAPH mode: p1=v1,p2=v2")
		noReuse   = flag.Bool("no-reuse", false, "disable fingerprint reuse (naive baseline)")
		users     = flag.Int("users", 2000, "UserSelection dataset size")
		workers   = flag.Int("workers", 0, "sweep worker pool size (0 = all cores, 1 = sequential)")
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

	reg, err := jigsaw.NewStockRegistry(*users)
	if err != nil {
		fatal(err)
	}
	scenario, err := jigsaw.Compile(script, reg)
	if err != nil {
		fatal(err)
	}

	opts := jigsaw.EngineOptions{
		Samples:           *samples,
		FingerprintLen:    *m,
		MasterSeed:        *seed,
		Reuse:             !*noReuse,
		ValidationSamples: *validate,
		Workers:           *workers,
	}
	switch *indexKind {
	case "array":
		opts.Index = jigsaw.IndexArray
	case "norm":
		opts.Index = jigsaw.IndexNormalization
	case "sid":
		opts.Index = jigsaw.IndexSortedSID
	default:
		fatal(fmt.Errorf("unknown index %q", *indexKind))
	}

	fmt.Printf("scenario: results(%s) over %d parameter points\n",
		strings.Join(scenario.Columns, ", "), scenario.Space.Size())
	if shared, why := scenario.SharesDraws(); shared {
		fmt.Println("draws shared per sample: yes")
	} else {
		fmt.Printf("draws shared per sample: no (%s)\n", why)
	}

	switch {
	case script.Optimize != nil:
		runOptimize(scenario, script, opts)
	case script.Graph != nil:
		runGraph(scenario, script, opts, *fix)
	default:
		fatal(fmt.Errorf("script has neither OPTIMIZE nor GRAPH statement"))
	}
}

func runOptimize(scenario *jigsaw.Scenario, script *jigsaw.Script, opts jigsaw.EngineOptions) {
	start := time.Now()
	res, err := jigsaw.Optimize(scenario, script.Optimize, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nOPTIMIZE: %d groups, %d evaluations in %v\n",
		res.Groups, res.PointsEvaluated, time.Since(start))
	fmt.Printf("reuse: %d mapped, %d fully simulated, %d bases\n",
		res.Stats.Reused, res.Stats.FullSimulations, res.Stats.Store.Bases)
	fmt.Printf("feasible groups: %d / %d\n\n", res.Feasible, res.Groups)
	if res.Chosen == nil {
		fmt.Println("no parameter combination satisfies the constraints")
		return
	}
	fmt.Println("optimal parameters:")
	for _, p := range script.Optimize.Params {
		fmt.Printf("  @%s = %g\n", p, res.Chosen.MustGet(p))
	}
	for i, c := range script.Optimize.Constraints {
		fmt.Printf("  %s(%s %s) = %.6g  (%s %g)\n",
			c.Outer, c.Metric, c.Column, res.ConstraintValues[i], c.Op, c.Bound)
	}
}

func runGraph(scenario *jigsaw.Scenario, script *jigsaw.Script, opts jigsaw.EngineOptions, fix string) {
	fixed, err := parseFixed(fix)
	if err != nil {
		fatal(err)
	}
	// Default unfixed parameters (other than the swept one) to the
	// first value of their domain. Graph validates the fixed names, so
	// the defaults are reported only once it has accepted them.
	var notes []string
	for _, d := range scenario.Space.Decls() {
		if d.Name == script.Graph.Over {
			continue
		}
		if _, ok := fixed[d.Name]; !ok {
			fixed[d.Name] = d.Domain()[0]
			notes = append(notes, fmt.Sprintf("note: @%s not fixed; using %g", d.Name, fixed[d.Name]))
		}
	}
	start := time.Now()
	res, err := jigsaw.Graph(scenario, script.Graph, fixed, opts)
	if err != nil {
		fatal(err)
	}
	for _, note := range notes {
		fmt.Println(note)
	}
	fmt.Printf("\nGRAPH OVER @%s (%d points, %v; %d reused of %d)\n\n",
		res.Over, len(res.Series[0].X), time.Since(start), res.Stats.Reused, res.Stats.Points)

	series := make([]chart.Series, len(res.Series))
	for i, s := range res.Series {
		series[i] = chart.Series{Label: s.Label + " " + strings.Join(s.Style, " "), X: s.X, Y: s.Y}
	}
	fmt.Print(chart.Render(series, chart.Options{}))
}

func parseFixed(s string) (jigsaw.Point, error) {
	p := jigsaw.Point{}
	if s == "" {
		return p, nil
	}
	for _, kv := range strings.Split(s, ",") {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad -fix entry %q (want name=value)", kv)
		}
		v, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad -fix value in %q: %v", kv, err)
		}
		p[strings.TrimPrefix(strings.TrimSpace(parts[0]), "@")] = v
	}
	return p, nil
}

// fatal prints err once prefixed with the command's name (errors from
// the facade carry that prefix already) and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jigsaw:", strings.TrimPrefix(err.Error(), "jigsaw: "))
	os.Exit(1)
}
