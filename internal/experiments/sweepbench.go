package experiments

// The sweep micro-benchmark behind the repo's recorded perf
// trajectory (BENCH_sweep.json). Where Figures 7–12 reproduce the
// paper's comparisons, this harness tracks *our* hot path over time:
// ns, allocations and bytes per parameter point across the
// index × reuse × workers grid, so a future change that reintroduces
// per-sample allocation or slows the probe is caught by diffing two
// JSON files (see EXPERIMENTS.md, "Perf methodology").

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
)

// SweepBenchResult is one grid cell: a full sweep of the Demand model
// measured with testing.Benchmark and normalized per parameter point.
type SweepBenchResult struct {
	// Name is the canonical cell label, e.g.
	// "sweep/index=Normalization/reuse=true/workers=1".
	Name string `json:"name"`
	// Index is the fingerprint index strategy.
	Index string `json:"index"`
	// Reuse reports whether fingerprint reuse was enabled.
	Reuse bool `json:"reuse"`
	// Workers is the sweep worker-pool size.
	Workers int `json:"workers"`
	// Points is the number of parameter points per sweep.
	Points int `json:"points"`
	// NsPerPoint is wall time per point.
	NsPerPoint float64 `json:"ns_per_point"`
	// AllocsPerPoint is heap allocations per point.
	AllocsPerPoint float64 `json:"allocs_per_point"`
	// BytesPerPoint is heap bytes per point.
	BytesPerPoint float64 `json:"bytes_per_point"`
	// ReuseRate is the fraction of points answered from a mapped
	// basis (0 with reuse disabled).
	ReuseRate float64 `json:"reuse_rate"`
}

// SweepBenchReport is the BENCH_sweep.json / BENCH_pdb.json payload
// (the PDB suite reuses the shape with per-world normalization).
type SweepBenchReport struct {
	// Suite names the benchmark grid ("sweep" or "pdb"); empty in
	// reports recorded before the field existed (treated as "sweep").
	Suite string `json:"suite,omitempty"`
	// GoVersion, GOOS, GOARCH, GOMAXPROCS and NumCPU describe the
	// measuring machine; absolute numbers are only comparable within
	// one. GOMAXPROCS is always ≥ the widest workers column (SweepBench
	// raises it if needed), so NumCPU is the honest ceiling on how much
	// real parallelism the workers>1 cells could have seen: with
	// NumCPU < workers those cells measure pipeline overhead under
	// time-slicing, not speedup.
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Samples and FingerprintLen are the engine's n and m.
	Samples        int `json:"samples"`
	FingerprintLen int `json:"fingerprint_len"`
	// Points is the sweep size every cell shares.
	Points int `json:"points"`
	// Results holds one entry per index × reuse × workers cell.
	Results []SweepBenchResult `json:"results"`
}

// benchParallelWorkers is the default workers>1 grid column: fixed so
// recorded cell names are machine-independent, modest enough that the
// pool oversubscribes gracefully on small machines.
const benchParallelWorkers = 4

// manyBasesFamilies and manyBasesPoints shape the many-bases rows: 64
// distinct fingerprint families (SynthBasis classes) spread over 2048
// points, i.e. a 96.9% reuse rate with basis registrations scattered
// through the first 64 commit steps instead of only at sweep start.
const (
	manyBasesFamilies = 64
	manyBasesPoints   = 2048
)

// cellProcs is the GOMAXPROCS a cell's measurement runs under: the
// cell's worker count, so sequential cells keep the paper's
// single-threaded scheduler (comparable across machines and with the
// recorded history) and parallel cells get the threads their pool
// needs.
func cellProcs(workers int) int {
	if workers < 1 {
		return 1
	}
	return workers
}

// mustRange builds a param.Range, surfacing construction errors as
// panics (the inputs are compile-time constants).
func mustRange(name string, lo, hi, step float64) param.Decl {
	d, err := param.Range(name, lo, hi, step)
	if err != nil {
		panic(err)
	}
	return d
}

// measureSweepCell benchmarks one grid cell: an un-timed sweep
// reports the reuse rate, then the engine is rebuilt per iteration so
// every timed sweep starts from an empty store (what a fresh sweep
// costs, not a warmed one).
func measureSweepCell(name string, opts mc.Options, ev mc.PointEval) (SweepBenchResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cellProcs(opts.Workers)))
	eng, err := mc.New(opts)
	if err != nil {
		return SweepBenchResult{}, err
	}
	_, st, err := eng.Sweep(ev)
	if err != nil {
		return SweepBenchResult{}, err
	}
	reuseRate := 0.0
	if st.Points > 0 {
		reuseRate = float64(st.Reused) / float64(st.Points)
	}

	var sweepErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng, err := mc.New(opts)
			if err != nil {
				sweepErr = err
				return
			}
			if _, _, err := eng.Sweep(ev); err != nil {
				sweepErr = err
				return
			}
		}
	})
	if sweepErr != nil {
		return SweepBenchResult{}, sweepErr
	}
	points := float64(ev.Space().Size())
	return SweepBenchResult{
		Name:           name,
		Index:          opts.Index.String(),
		Reuse:          opts.Reuse,
		Workers:        opts.Workers,
		Points:         ev.Space().Size(),
		NsPerPoint:     float64(res.NsPerOp()) / points,
		AllocsPerPoint: float64(res.AllocsPerOp()) / points,
		BytesPerPoint:  float64(res.AllocedBytesPerOp()) / points,
		ReuseRate:      reuseRate,
	}, nil
}

// sweepBenchSpace is the benchmark workload: the paper's Demand model
// over a (week × release) grid — the reuse-heavy shape Fig. 8 leads
// with, so the reuse=true cells measure the mapped-point hot path and
// the reuse=false cells the full-simulation path.
func sweepBenchSpace(cfg Config) (*param.Space, error) {
	wk, err := param.Range("current_week", 0, float64(cfg.Weeks), 1)
	if err != nil {
		return nil, err
	}
	fr, err := param.Range("feature_release", 0, float64(cfg.Weeks), 1)
	if err != nil {
		return nil, err
	}
	return param.NewSpace(wk, fr)
}

// SweepBench measures the sweep hot path over the index × reuse ×
// workers grid and returns the report for BENCH_sweep.json.
func SweepBench(cfg Config) (*SweepBenchReport, error) {
	cfg = cfg.withDefaults()
	space, err := sweepBenchSpace(cfg)
	if err != nil {
		return nil, err
	}
	ev := mc.MustBindBox(blackbox.NewDemand(), space, "current_week", "feature_release")

	// The grid always includes a workers>1 column so the parallel
	// sweep path is on the recorded trajectory even on single-core
	// machines (where its numbers measure coordination overhead, not
	// speedup — the point is catching regressions in the path). The
	// column is a fixed pool size, not GOMAXPROCS, so cell names —
	// the comparison key of CompareSweepBench — do not depend on the
	// measuring machine's core count.
	parallelWorkers := cfg.Workers
	if parallelWorkers <= 1 {
		parallelWorkers = benchParallelWorkers
	}
	workerGrid := []int{1, parallelWorkers}

	// Every cell runs at the GOMAXPROCS its worker count needs: a
	// workers=N cell measured below N schedulable threads (the seed
	// trajectory was recorded at gomaxprocs=1!) is silently a
	// time-sliced rerun of the sequential path plus coordination
	// overhead, while a workers=1 cell measured at GOMAXPROCS>1 on a
	// small machine donates part of its only core to idle scheduler
	// and GC workers — so each measurement pins the scheduler to its
	// own cell's width (measureSweepCell) and the report records the
	// widest setting. Setting GOMAXPROCS cannot fail (the runtime
	// accepts any positive value), so the failure mode that remains
	// is *hardware* that cannot host the column: NumCPU lands in the
	// report and the rendered table carries a loud warning whenever
	// NumCPU < workers, so oversubscribed time-slicing can never pass
	// silently for real scaling.
	prevProcs := runtime.GOMAXPROCS(parallelWorkers)
	defer runtime.GOMAXPROCS(prevProcs)

	// The full index × reuse grid: reuse=false cells measure the
	// full-simulation (cold) path — the index is irrelevant to the
	// work done but recorded so the trajectory covers every
	// configuration the engine exposes — and reuse=true cells measure
	// the mapped-point hot path per index.
	type cell struct {
		index mc.IndexKind
		reuse bool
	}
	cells := []cell{
		{mc.IndexArray, false},
		{mc.IndexNormalization, false},
		{mc.IndexSortedSID, false},
		{mc.IndexArray, true},
		{mc.IndexNormalization, true},
		{mc.IndexSortedSID, true},
	}

	report := &SweepBenchReport{
		Suite:          "sweep",
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		Samples:        cfg.Samples,
		FingerprintLen: cfg.FingerprintLen,
		Points:         space.Size(),
	}

	for _, c := range cells {
		for _, workers := range workerGrid {
			opts := mc.Options{
				Samples: cfg.Samples, FingerprintLen: cfg.FingerprintLen,
				MasterSeed: cfg.MasterSeed, Reuse: c.reuse, Index: c.index,
				Workers: workers,
			}
			name := fmt.Sprintf("sweep/index=%s/reuse=%t/workers=%d",
				c.index, c.reuse, workers)
			cell, err := measureSweepCell(name, opts, ev)
			if err != nil {
				return nil, err
			}
			report.Results = append(report.Results, cell)
		}
	}

	// The many-bases rows: SynthBasis with manyBasesFamilies distinct
	// fingerprint families over a reuse-heavy point grid. The Demand
	// grid above accumulates only ~2 bases, so the naive array scan is
	// competitive and index pruning invisible; these rows are where a
	// hash index must beat ArrayIndex's O(bases) probe, and where the
	// sweep's phase B sees registrations throughout the sweep
	// rather than only at the start.
	manySpace := param.MustSpace(mustRange("point_index", 0, float64(manyBasesPoints-1), 1))
	manyEv := mc.MustBindBox(blackbox.NewSynthBasis(manyBasesFamilies), manySpace, "point_index")
	for _, c := range []mc.IndexKind{mc.IndexArray, mc.IndexNormalization, mc.IndexSortedSID} {
		for _, workers := range workerGrid {
			opts := mc.Options{
				Samples: cfg.Samples, FingerprintLen: cfg.FingerprintLen,
				MasterSeed: cfg.MasterSeed, Reuse: true, Index: c,
				Workers: workers,
			}
			name := fmt.Sprintf("sweep/index=%s/reuse=true/bases=%d/workers=%d",
				c, manyBasesFamilies, workers)
			cell, err := measureSweepCell(name, opts, manyEv)
			if err != nil {
				return nil, err
			}
			report.Results = append(report.Results, cell)
		}
	}

	// The full-simulation-only row: one warmed EvaluatePoint per
	// iteration, no sweep machinery (enumeration, probing, result
	// slices) — the isolated cost of the block-sampling cold path
	// that dominates every reuse=false cell above. A point's samples
	// draw on one goroutine, so the row has one worker.
	eng, err := mc.New(mc.Options{
		Samples: cfg.Samples, FingerprintLen: cfg.FingerprintLen,
		MasterSeed: cfg.MasterSeed, Reuse: false, Workers: 1,
	})
	if err != nil {
		return nil, err
	}
	p := []float64{float64(cfg.Weeks / 2), float64(cfg.Weeks / 4)} // current_week, feature_release
	procs := runtime.GOMAXPROCS(cellProcs(1))
	eng.EvaluatePoint(ev, p) // warm the scratch pool
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.EvaluatePoint(ev, p)
		}
	})
	runtime.GOMAXPROCS(procs)
	report.Results = append(report.Results, SweepBenchResult{
		Name:           "fullsim/workers=1",
		Index:          "none",
		Reuse:          false,
		Workers:        1,
		Points:         1,
		NsPerPoint:     float64(res.NsPerOp()),
		AllocsPerPoint: float64(res.AllocsPerOp()),
		BytesPerPoint:  float64(res.AllocedBytesPerOp()),
		ReuseRate:      0,
	})
	return report, nil
}

// Regression describes one benchmark cell that regressed against a
// baseline report.
type Regression struct {
	// Name is the cell label.
	Name string
	// BaselineNs and CurrentNs are the recorded ns/point figures.
	BaselineNs, CurrentNs float64
	// Ratio is CurrentNs / BaselineNs.
	Ratio float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %.0f ns/point vs baseline %.0f (%.2fx)",
		r.Name, r.CurrentNs, r.BaselineNs, r.Ratio)
}

// CompareSweepBench checks a fresh report against a baseline and
// returns one Regression per cell whose ns/point grew by more than
// maxRegress (0.20 = +20%). Cells present in only one report are
// skipped — the grid is allowed to grow — but a comparison that
// matches no cell at all errors rather than reading as a green gate.
//
// Absolute ns are machine-dependent, so the comparison is only
// calibrated between runs on comparable machines: the checked-in
// baseline is regenerated on the recording machine whenever the hot
// path intentionally changes, and a CI runner slower than it by more
// than the threshold will flag every cell. That failure mode is loud
// and obvious (every cell at a similar ratio ⇒ machine delta;
// isolated cells ⇒ genuine regression) and the intended response is
// regenerating the baseline on the class of machine CI uses — not
// widening maxRegress.
func CompareSweepBench(current, baseline *SweepBenchReport, maxRegress float64) ([]Regression, error) {
	if current.Suite != "" && baseline.Suite != "" && current.Suite != baseline.Suite {
		return nil, fmt.Errorf("experiments: suite mismatch: current %q vs baseline %q", current.Suite, baseline.Suite)
	}
	if current.Samples != baseline.Samples || current.FingerprintLen != baseline.FingerprintLen {
		return nil, fmt.Errorf("experiments: scale mismatch: current n=%d m=%d vs baseline n=%d m=%d (compare equal -scale runs)",
			current.Samples, current.FingerprintLen, baseline.Samples, baseline.FingerprintLen)
	}
	base := make(map[string]SweepBenchResult, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	var regs []Regression
	matched := 0
	for _, cur := range current.Results {
		b, ok := base[cur.Name]
		if !ok || b.NsPerPoint <= 0 || cur.Points != b.Points {
			continue
		}
		matched++
		ratio := cur.NsPerPoint / b.NsPerPoint
		if ratio > 1+maxRegress {
			regs = append(regs, Regression{
				Name: cur.Name, BaselineNs: b.NsPerPoint, CurrentNs: cur.NsPerPoint, Ratio: ratio,
			})
		}
	}
	if matched == 0 {
		// A comparison that matched nothing (renamed cells, resized
		// space) must not read as a green gate.
		return nil, fmt.Errorf("experiments: no baseline cell comparable to the current report (%d current, %d baseline cells)",
			len(current.Results), len(baseline.Results))
	}
	return regs, nil
}

// ReadSweepBench parses a BENCH_sweep.json payload.
func ReadSweepBench(r io.Reader) (*SweepBenchReport, error) {
	var report SweepBenchReport
	if err := json.NewDecoder(r).Decode(&report); err != nil {
		return nil, fmt.Errorf("experiments: parsing sweep bench report: %w", err)
	}
	return &report, nil
}

// WriteJSON renders the report as indented JSON.
func (r *SweepBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Table renders the report in the experiment-table format.
func (r *SweepBenchReport) Table() *Table {
	title := "Sweep hot path (BENCH_sweep)"
	if r.Suite == "pdb" {
		title = "PDB query layer (BENCH_pdb, per world)"
	}
	t := &Table{
		Title:   title,
		Columns: []string{"cell", "points", "ns/point", "allocs/point", "B/point", "reuse"},
		Notes: []string{
			fmt.Sprintf("%s %s/%s GOMAXPROCS=%d NumCPU=%d samples=%d m=%d",
				r.GoVersion, r.GOOS, r.GOARCH, r.GOMAXPROCS, r.NumCPU, r.Samples, r.FingerprintLen),
		},
	}
	maxWorkers := 0
	for _, c := range r.Results {
		if c.Workers > maxWorkers {
			maxWorkers = c.Workers
		}
	}
	if r.NumCPU > 0 && r.NumCPU < maxWorkers {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"WARNING: NumCPU=%d < workers=%d — the parallel cells measure time-sliced scheduling, not real parallelism",
			r.NumCPU, maxWorkers))
	}
	for _, c := range r.Results {
		t.Rows = append(t.Rows, []string{
			c.Name,
			fmt.Sprintf("%d", c.Points),
			fmt.Sprintf("%.0f", c.NsPerPoint),
			fmt.Sprintf("%.1f", c.AllocsPerPoint),
			fmt.Sprintf("%.0f", c.BytesPerPoint),
			fmt.Sprintf("%.1f%%", 100*c.ReuseRate),
		})
	}
	return t
}
