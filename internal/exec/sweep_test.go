package exec

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/stats"
)

// streamBatch collects one Stream of cs over batch, value rows of the
// scenario's Space: one result slice per name given to SweepColumns,
// in batch order.
func streamBatch(cs *ColumnSweep, batch [][]float64) ([][]mc.PointResult, error) {
	out := make([][]mc.PointResult, len(cs.column))
	for i := range out {
		out[i] = make([]mc.PointResult, len(batch))
	}
	row := func(i int, dst []float64) []float64 { return append(dst, batch[i]...) }
	err := cs.Stream(len(batch), row, func(i int, res []mc.PointResult) {
		for c, pr := range res {
			out[c][i] = pr
		}
	})
	return out, err
}

// columnEngines is the per-column reference for ColumnSweep: one
// engine per distinct column, each sweeping its own ColumnEval — a
// projection that evaluates the whole row for one slot. The joint
// sweep must match it bit for bit.
type columnEngines struct {
	engines []*mc.Engine
	evals   []mc.PointEval
	column  []int
	stats   mc.SweepStats
}

func newColumnEngines(t *testing.T, s *Scenario, names []string, opts mc.Options) *columnEngines {
	t.Helper()
	ref := &columnEngines{column: make([]int, len(names))}
	seen := map[string]int{}
	for i, name := range names {
		if c, ok := seen[name]; ok {
			ref.column[i] = c
			continue
		}
		ev, err := s.ColumnEval(name)
		if err != nil {
			t.Fatal(err)
		}
		seen[name] = len(ref.engines)
		ref.column[i] = len(ref.engines)
		ref.engines = append(ref.engines, mc.MustNew(opts))
		ref.evals = append(ref.evals, ev)
	}
	return ref
}

func (ref *columnEngines) sweep(t *testing.T, batch [][]float64) [][]mc.PointResult {
	t.Helper()
	swept := make([][]mc.PointResult, len(ref.engines))
	for c, eng := range ref.engines {
		prs, st, err := eng.SweepBatch(ref.evals[c], batch)
		if err != nil {
			t.Fatal(err)
		}
		swept[c] = prs
		ref.stats.Add(st)
	}
	out := make([][]mc.PointResult, len(ref.column))
	for i, c := range ref.column {
		out[i] = swept[c]
	}
	return out
}

// sameSummary compares two summaries bit for bit.
func sameSummary(a, b stats.Summary) bool {
	bits := math.Float64bits
	return a.N == b.N && bits(a.Mean) == bits(b.Mean) && bits(a.StdDev) == bits(b.StdDev) &&
		bits(a.Min) == bits(b.Min) && bits(a.Max) == bits(b.Max)
}

// spaceRows returns the value rows of s's points lo to hi−1.
func spaceRows(s *param.Space, lo, hi int) [][]float64 {
	rows := make([][]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, s.Values(i, nil))
	}
	return rows
}

// valueRow returns p as a value row of s's Space.
func valueRow(s *Scenario, p param.Point) []float64 {
	decls := s.Space.Decls()
	row := make([]float64, len(decls))
	for i, d := range decls {
		row[i] = p.MustGet(d.Name)
	}
	return row
}

// fig1Batches returns OPTIMIZE-shaped batches over the Fig. 1
// scenario: one batch per purchase1 group, each sweeping the weeks.
func fig1Batches() [][][]float64 {
	var batches [][][]float64
	for _, p1 := range []float64{0, 8, 16} {
		var batch [][]float64
		for w := 0.0; w <= 52; w += 4 {
			// current_week, purchase1, purchase2, feature_release
			batch = append(batch, []float64{w, p1, 24, 12})
		}
		batches = append(batches, batch)
	}
	return batches
}

// TestColumnSweepMatchesPerColumnEngines pins the joint sweep, which
// evaluates each sampled row once for every column, to the per-column
// engines it replaces: every PointResult and the summed statistics
// (so every store's registrations), across workers, reuse,
// validation, a repeated column and a two-constraint OPTIMIZE whose
// columns miss at different points.
func TestColumnSweepMatchesPerColumnEngines(t *testing.T) {
	s := compileFig1(t)
	batches := fig1Batches()
	for _, names := range [][]string{
		{"overload", "capacity"},           // two OPTIMIZE constraints
		{"overload", "capacity", "demand"}, // a three-series GRAPH
		{"demand", "overload", "demand"},   // a repeated column
		{"capacity"},                       // k = 1
	} {
		for _, workers := range []int{1, 2, 4} {
			for _, reuse := range []bool{true, false} {
				for _, validation := range []int{0, 16} {
					opts := mc.Options{
						Samples: 300, FingerprintLen: 10, MasterSeed: 0x5161,
						Reuse: reuse, Index: mc.IndexNormalization, Workers: workers,
						ValidationSamples: validation,
					}
					name := fmt.Sprintf("%v/workers=%d/reuse=%v/validation=%d", names, workers, reuse, validation)
					t.Run(name, func(t *testing.T) {
						checkJointSweep(t, s, names, opts, batches)
					})
				}
			}
		}
	}
}

func checkJointSweep(t *testing.T, s *Scenario, names []string, opts mc.Options, batches [][][]float64) {
	cs, err := s.SweepColumns(names, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := newColumnEngines(t, s, names, opts)
	// misses[c] records the points where column c was simulated.
	misses := make([]map[string]bool, len(names))
	for i := range misses {
		misses[i] = map[string]bool{}
	}
	for b, batch := range batches {
		got, err := streamBatch(cs, batch)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.sweep(t, batch)
		for c := range names {
			for i := range batch {
				g, w := got[c][i], want[c][i]
				if !sameSummary(g.Summary, w.Summary) || g.Reused != w.Reused ||
					g.BasisID != w.BasisID || !reflect.DeepEqual(g.Mapping, w.Mapping) {
					t.Fatalf("batch %d column %s point %v: joint %+v, per-column %+v", b, names[c], batch[i], g, w)
				}
				if !g.Reused {
					misses[c][fmt.Sprint(batch[i])] = true
				}
			}
		}
	}
	if got, want := cs.Stats(), ref.stats; got != want {
		t.Fatalf("stats: joint %+v, per-column %+v", got, want)
	}
	// The first two columns of every multi-column case are distinct
	// and, with reuse, must miss at different points — otherwise the
	// case does not exercise a row shared between a hit and a miss.
	if opts.Reuse && len(names) > 1 && names[0] != names[1] &&
		reflect.DeepEqual(misses[0], misses[1]) {
		t.Fatalf("columns %s and %s miss at the same points %v", names[0], names[1], misses[0])
	}
}

// TestColumnSweepAllocsPerPoint pins the joint sweep's allocation
// budget: per point it allocates O(1) — results, plans, payloads and
// the boxed mappings — and nothing per sample, so a sweep at 1000
// samples allocates no more per point than one at 200. A row
// allocation per sample would cost ≥ 1000 per point.
func TestColumnSweepAllocsPerPoint(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector (sync.Pool drops puts)")
	}
	s := compileFig1(t)
	batch := fig1Batches()[1]
	names := []string{"demand", "capacity", "overload"}
	perPoint := func(samples int) float64 {
		opts := mc.Options{
			Samples: samples, FingerprintLen: 10, MasterSeed: 0x5161,
			Reuse: true, Index: mc.IndexNormalization, Workers: 1,
		}
		cs, err := s.SweepColumns(names, opts)
		if err != nil {
			t.Fatal(err)
		}
		sweep := func() {
			if _, err := streamBatch(cs, batch); err != nil {
				t.Fatal(err)
			}
		}
		sweep() // warm the stores and the scratch pool
		return testing.AllocsPerRun(10, sweep) / float64(len(batch))
	}
	// A fresh sweep simulates its misses: the warmed sweep above only
	// maps. Both must stay flat in the sample count.
	cold := func(samples int) float64 {
		opts := mc.Options{
			Samples: samples, FingerprintLen: 10, MasterSeed: 0x5161,
			Reuse: false, Workers: 1,
		}
		cs, err := s.SweepColumns(names, opts)
		if err != nil {
			t.Fatal(err)
		}
		sweep := func() {
			if _, err := streamBatch(cs, batch); err != nil {
				t.Fatal(err)
			}
		}
		sweep()
		return testing.AllocsPerRun(10, sweep) / float64(len(batch))
	}
	// Per point, for k = 3 columns: 4.6 observed warmed (three boxed
	// mappings plus the results), 1.6 simulating.
	const budget = 8
	for _, tc := range []struct {
		name string
		run  func(int) float64
	}{{"warmed", perPoint}, {"simulating", cold}} {
		small, large := tc.run(200), tc.run(1000)
		if large > budget {
			t.Errorf("%s k=3 sweep allocates %.2f per point at 1000 samples, budget %d", tc.name, large, budget)
		}
		if large > small+0.5 {
			t.Errorf("%s k=3 sweep allocates %.2f per point at 1000 samples vs %.2f at 200: allocations grow with the sample count", tc.name, large, small)
		}
	}
}
