// Command jigsaw-bench regenerates the paper's evaluation tables and
// figures (§6, Figs. 7–12). Each experiment prints the same rows or
// series the paper reports; EXPERIMENTS.md records paper-vs-measured.
//
// Usage:
//
//	jigsaw-bench [-experiment all|fig7|fig8|fig9|fig10|fig11|fig12]
//	             [-scale quick|paper] [-samples N] [-trials N]
//	             [-workers N]
//	jigsaw-bench -json BENCH_sweep.json [-suite sweep] [-scale quick|paper]
//	             [-baseline BENCH_sweep.json] [-maxregress 0.20]
//	jigsaw-bench -json BENCH_pdb.json -suite pdb [-scale quick|paper]
//	             [-baseline BENCH_pdb.json] [-maxregress 0.20]
//	jigsaw-bench ... [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The -json mode runs a hot-path micro-benchmark suite instead of the
// paper figures and writes the machine-readable perf point
// EXPERIMENTS.md's "Perf methodology" section describes: -suite sweep
// (the default) measures the Monte Carlo engine's
// index × reuse × workers grid, -suite pdb the PDB query layer's
// query × workers grid (ns per world).
// With -baseline it additionally compares the fresh numbers against a
// checked-in report of the same suite and exits nonzero when any
// recorded cell's ns/point regressed by more than -maxregress — the
// CI guard on the hot paths.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"jigsaw/internal/experiments"
)

func main() {
	var (
		which      = flag.String("experiment", "all", "fig7, fig8, fig9, fig10, fig11, fig12 or all")
		scale      = flag.String("scale", "paper", "quick or paper")
		samples    = flag.Int("samples", 0, "override samples per point")
		trials     = flag.Int("trials", 0, "override timing trials")
		workers    = flag.Int("workers", 1, "sweep worker pool size (1 = paper's sequential timings, 0 = all cores)")
		jsonPath   = flag.String("json", "", "run the -suite hot-path benchmark and write BENCH_*.json-style output here")
		suite      = flag.String("suite", "sweep", "hot-path benchmark suite for -json: sweep (mc engine) or pdb (query layer)")
		baseline   = flag.String("baseline", "", "compare the -json run against this checked-in report of the same suite and fail on regression")
		maxRegress = flag.Float64("maxregress", 0.20, "allowed ns/point regression per cell vs -baseline (0.20 = +20%)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	)
	flag.Parse()

	// Profiling applies to whichever mode runs below, so hot-path PRs
	// can profile the exact workload the recorded trajectory measures
	// (jigsaw-bench -json -cpuprofile cpu.pprof) instead of
	// hand-rolling a harness. Every exit, error or not, goes through
	// exit so the profiles are flushed before the process dies.
	exit := func(code int) {
		// Stop the CPU profile first: it must be flushed whatever
		// happens to the heap profile below, and the heap snapshot's
		// forced GC must not pollute the CPU profile's tail.
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "jigsaw-bench: %v\n", err)
				os.Exit(1)
			}
			runtime.GC() // materialize only live heap in the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "jigsaw-bench: %v\n", err)
				os.Exit(1)
			}
			f.Close()
		}
		os.Exit(code)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jigsaw-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "jigsaw-bench: %v\n", err)
			os.Exit(1)
		}
	}

	var cfg experiments.Config
	switch *scale {
	case "quick":
		cfg = experiments.Quick()
	case "paper":
		cfg = experiments.Defaults()
	default:
		fmt.Fprintf(os.Stderr, "jigsaw-bench: unknown scale %q\n", *scale)
		exit(2)
	}
	if *samples > 0 {
		cfg.Samples = *samples
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	// 0 means all cores, matching cmd/jigsaw and the library's
	// EngineOptions.Workers (which reject negatives; this flag treats
	// them as 0); the flag default of 1 keeps the paper's
	// single-threaded timing semantics.
	if *workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	} else {
		cfg.Workers = *workers
	}

	if *jsonPath != "" {
		start := time.Now()
		var report *experiments.SweepBenchReport
		var err error
		switch *suite {
		case "sweep":
			report, err = experiments.SweepBench(cfg)
		case "pdb":
			report, err = experiments.PDBBench(cfg)
		default:
			fmt.Fprintf(os.Stderr, "jigsaw-bench: unknown suite %q\n", *suite)
			exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "jigsaw-bench: %s bench: %v\n", *suite, err)
			exit(1)
		}
		out, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jigsaw-bench: %v\n", err)
			exit(1)
		}
		if err := report.WriteJSON(out); err == nil {
			err = out.Close()
		} else {
			out.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "jigsaw-bench: %v\n", err)
			exit(1)
		}
		report.Table().Fprint(os.Stdout)
		fmt.Printf("(sweepbench completed in %v; wrote %s)\n", time.Since(start).Round(time.Millisecond), *jsonPath)
		if *baseline != "" {
			f, err := os.Open(*baseline)
			if err != nil {
				fmt.Fprintf(os.Stderr, "jigsaw-bench: %v\n", err)
				exit(1)
			}
			base, err := experiments.ReadSweepBench(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "jigsaw-bench: %v\n", err)
				exit(1)
			}
			regs, err := experiments.CompareSweepBench(report, base, *maxRegress)
			if err != nil {
				fmt.Fprintf(os.Stderr, "jigsaw-bench: %v\n", err)
				exit(1)
			}
			if len(regs) > 0 {
				fmt.Fprintf(os.Stderr, "jigsaw-bench: %d cell(s) regressed more than %.0f%% vs %s:\n",
					len(regs), 100**maxRegress, *baseline)
				for _, r := range regs {
					fmt.Fprintf(os.Stderr, "  %s\n", r)
				}
				exit(1)
			}
			fmt.Printf("no cell regressed more than %.0f%% vs %s\n", 100**maxRegress, *baseline)
		}
		exit(0)
	}

	type experiment struct {
		name string
		run  func(experiments.Config) (*experiments.Table, error)
	}
	all := []experiment{
		{"fig7", func(c experiments.Config) (*experiments.Table, error) {
			_, t, err := experiments.Figure7(c)
			return t, err
		}},
		{"fig8", func(c experiments.Config) (*experiments.Table, error) {
			_, t, err := experiments.Figure8(c)
			return t, err
		}},
		{"fig9", func(c experiments.Config) (*experiments.Table, error) {
			_, t, err := experiments.Figure9(c)
			return t, err
		}},
		{"fig10", func(c experiments.Config) (*experiments.Table, error) {
			_, t, err := experiments.Figure10(c)
			return t, err
		}},
		{"fig11", func(c experiments.Config) (*experiments.Table, error) {
			_, t, err := experiments.Figure11(c)
			return t, err
		}},
		{"fig12", func(c experiments.Config) (*experiments.Table, error) {
			_, t, err := experiments.Figure12(c)
			return t, err
		}},
	}

	ran := 0
	for _, e := range all {
		if *which != "all" && *which != e.name {
			continue
		}
		ran++
		start := time.Now()
		table, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jigsaw-bench: %s: %v\n", e.name, err)
			exit(1)
		}
		table.Fprint(os.Stdout)
		fmt.Printf("(%s completed in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "jigsaw-bench: unknown experiment %q\n", *which)
		exit(2)
	}
	exit(0)
}
