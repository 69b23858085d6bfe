// Package experiments regenerates every table and figure of the
// paper's evaluation (§6): the two-prototype comparison (Fig. 7), the
// fingerprinting-vs-full-evaluation baseline (Fig. 8), structure-size
// behavior (Fig. 9), indexing strategies (Figs. 10 and 11), and
// Markov-jump performance (Fig. 12).
//
// Absolute timings differ from the paper's 2008-era hardware; the
// reproduction contract is the *shape*: who wins, by roughly what
// factor, and where crossovers fall. EXPERIMENTS.md records measured
// values next to the paper's.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"jigsaw/internal/core"
	"jigsaw/internal/mc"
)

// Config scales the experiments. The zero value is completed by
// Defaults; tests use Quick (small spaces, fast), cmd/jigsaw-bench
// uses Defaults (paper-scale spaces).
type Config struct {
	// Samples is n, the Monte Carlo rounds per parameter point
	// (paper: 1000).
	Samples int
	// FingerprintLen is m (paper: 10).
	FingerprintLen int
	// MasterSeed fixes all randomness.
	MasterSeed uint64
	// Users is the UserSelection dataset size.
	Users int
	// Weeks is the time horizon for week-swept models (paper: 52).
	Weeks int
	// PurchaseStep thins the purchase grids (paper: 4).
	PurchaseStep int
	// MarkovSteps is the chain length for Fig. 12 (paper: 128).
	MarkovSteps int
	// MarkovInstances is n for chains (paper-equivalent: 1000).
	MarkovInstances int
	// Trials averages timing measurements (paper: 30).
	Trials int
	// Workers sizes the engines' sweep worker pools. The default of 1
	// reproduces the paper's single-threaded timings; jigsaw-bench
	// -workers overrides it to measure multi-core scaling (results
	// are bit-identical either way).
	Workers int
}

// Defaults returns the paper-scale configuration (§6 experimental
// setup).
func Defaults() Config {
	return Config{
		Samples:         1000,
		FingerprintLen:  10,
		MasterSeed:      0x5161,
		Users:           2000,
		Weeks:           52,
		PurchaseStep:    4,
		MarkovSteps:     128,
		MarkovInstances: 1000,
		Trials:          3,
		Workers:         1,
	}
}

// Quick returns a configuration small enough for unit tests while
// preserving every qualitative effect.
func Quick() Config {
	return Config{
		Samples:         200,
		FingerprintLen:  10,
		MasterSeed:      0x5161,
		Users:           300,
		Weeks:           26,
		PurchaseStep:    8,
		MarkovSteps:     64,
		MarkovInstances: 200,
		Trials:          1,
		Workers:         1,
	}
}

func (c Config) withDefaults() Config {
	d := Defaults()
	if c.Samples == 0 {
		c.Samples = d.Samples
	}
	if c.FingerprintLen == 0 {
		c.FingerprintLen = d.FingerprintLen
	}
	if c.MasterSeed == 0 {
		c.MasterSeed = d.MasterSeed
	}
	if c.Users == 0 {
		c.Users = d.Users
	}
	if c.Weeks == 0 {
		c.Weeks = d.Weeks
	}
	if c.PurchaseStep == 0 {
		c.PurchaseStep = d.PurchaseStep
	}
	if c.MarkovSteps == 0 {
		c.MarkovSteps = d.MarkovSteps
	}
	if c.MarkovInstances == 0 {
		c.MarkovInstances = d.MarkovInstances
	}
	if c.Trials == 0 {
		c.Trials = d.Trials
	}
	if c.Workers == 0 {
		c.Workers = d.Workers
	}
	return c
}

// timeIt runs fn Trials times and returns the mean duration.
func timeIt(trials int, fn func()) time.Duration {
	if trials < 1 {
		trials = 1
	}
	var total time.Duration
	for i := 0; i < trials; i++ {
		start := time.Now()
		fn()
		total += time.Since(start)
	}
	return total / time.Duration(trials)
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the table in aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// fmtSeconds renders a duration in seconds with sensible precision.
func fmtSeconds(d time.Duration) string {
	return fmt.Sprintf("%.6g", d.Seconds())
}

// fmtRatio renders a dimensionless ratio.
func fmtRatio(r float64) string { return fmt.Sprintf("%.3g", r) }

// AnswerError is how far a reuse sweep's point means lie from those of
// the same sweep with reuse off: the error a reuse figure's speedup
// costs.
type AnswerError struct {
	// Points is the number of points compared; 0 means the figure
	// made no comparison.
	Points int
	// Off counts the points whose mean is off by more than
	// core.DefaultTolerance, that is by more than one tolerance unit.
	Off int
	// WorstTol is the largest deviation in tolerance units,
	// |reuse − full| / (DefaultTolerance·(1 + |full|)), perfbench's
	// answer_err scale.
	WorstTol float64
	// WorstSE is the largest deviation in standard errors of the
	// reuse-off mean, StdDev/√N (+Inf for a deviation from a constant).
	WorstSE float64
}

// answerError compares each point's mean under reuse with the same
// point's mean with reuse off.
func answerError(reuse, full []mc.PointResult) AnswerError {
	e := AnswerError{Points: len(full)}
	for i, f := range full {
		dev := math.Abs(reuse[i].Summary.Mean - f.Summary.Mean)
		if dev == 0 {
			continue
		}
		units := dev / (core.DefaultTolerance * (1 + math.Abs(f.Summary.Mean)))
		if !(units <= 1) { // a NaN mean is off
			e.Off++
		}
		se := dev / (f.Summary.StdDev / math.Sqrt(float64(f.Summary.N)))
		e.WorstTol, e.WorstSE = math.Max(e.WorstTol, units), math.Max(e.WorstSE, se)
	}
	return e
}

// cells renders the error as the table's three cells: points off (of
// those compared), worst tolerance units and worst standard errors,
// each "-" when nothing was compared.
func (e AnswerError) cells() []string {
	if e.Points == 0 {
		return []string{"-", "-", "-"}
	}
	return []string{fmt.Sprintf("%d/%d", e.Off, e.Points), fmt.Sprintf("%.3g", e.WorstTol), fmt.Sprintf("%.3g", e.WorstSE)}
}
