// Command perfbench is the end-to-end benchmark of the jigsaw
// repository. It times what a user runs, from script text to answer:
//
//	script → sqlparse.Parse → exec.CompileScenario → optimize.Run / exec.RunGraph
//	SQL    → sqlparse.Parse → exec.BuildPDBPlan    → pdb.RunDistribution
//
// Each workload runs as a closed loop with one client: answers run back
// to back in this process, with Workers = runtime.NumCPU(), in rounds
// over the run's inputs. Every answer starts from the script text; only
// the model registry, the generated data and the loaded DB are built
// once, as set-up. Every answer is checked: each answer to an input must
// be bit-identical to the run's first answer to it, and that first
// answer must be the one stored for the input (see reference.go).
//
// With -trace 0 the run reports the end-to-end metrics. With -trace 1
// it alternates untraced answers with traced ones, which record spans
// around the calls into each layer and count and time every model draw
// through wrappers registered in place of the models, and reports the
// per-layer metrics. README.md lists the workloads and metrics.
//
// Run it from the repository root through the script that builds it:
//
//	bash perfbench/run.sh --workload fig1_optimize --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user sees, measured with tracing off. The
// answer time's tail is printed in the report but is not one of them:
// on a shared VM the far tail of the 80 ms pdb_users answers follows the
// hypervisor's CPU steal (its p90 to p98 spread 23-31% between seeds),
// and the ~35 answers of a scenario run put it near their median.
var endToEnd = []metricDef{
	{"answer_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics, per answer.
var perLayer = []metricDef{
	{"sqlparse.parse_s", "s"},
	{"exec.compile_s", "s"},
	{"exec.execute_s", "s"},
	{"exec.ns_per_point_world", "ns"},
	{"exec.row_evals_per_point", "count"},
	{"blackbox.calls", "count"},
	{"blackbox.calls.DemandModel", "count"},
	{"blackbox.calls.CapacityModel", "count"},
	{"blackbox.calls.UserSelection", "count"},
	{"blackbox.calls.UserUsage", "count"},
	{"blackbox.s", "s"},
	{"blackbox.share", "ratio"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"mc.points", "count"},
	{"mc.full_sims", "count"},
	{"mc.reused", "count"},
	{"mc.reuse_ratio", "ratio"},
	{"core.bases", "count"},
	{"core.queries", "count"},
	{"core.hit_ratio", "ratio"},
	{"core.candidates_per_query", "ratio"},
	{"pdb.rows_out", "count"},
	{"pool.cpu_util", "ratio"},
	{"trace.overhead", "ratio"},
}

// Set-up is timed in setupGroups groups of builds, each group repeating
// the build until it takes setupGroup, so that builds of microseconds
// are timed well above the clock's resolution; setup_s is the median
// per-build time of the groups.
const (
	setupGroups = 25
	setupGroup  = 20 * time.Millisecond
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type runConfig struct {
	w       *workload
	seed    uint64
	size    size
	seconds time.Duration
	workers int
	trace   bool
	spanDir string // where the traced run writes its spans; "" writes none
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: fig1_optimize, graph_users or pdb_users")
		seed     = flag.Uint64("seed", 1, "run seed: chooses the run's input seeds, each of which sets an input's MasterSeed and GenerateUsers seed")
		seconds  = flag.Float64("seconds", 10, "how long to measure, in seconds")
		trace    = flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 runs the traced run and reports the per-layer metrics")
		spanDir  = flag.String("spans", "", "directory the traced run writes its spans to")
		writeRef = flag.String("write-ref", "", "store the answers of the workload's corpus in `dir`/<workload>.json and exit")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	cfg := runConfig{
		w: w, seed: *seed, size: w.full,
		seconds: time.Duration(*seconds * float64(time.Second)),
		workers: runtime.NumCPU(), trace: *trace == 1, spanDir: *spanDir,
	}
	if *writeRef != "" {
		if err := storeReferences(cfg, *writeRef); err != nil {
			fatal(err)
		}
		return
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run measures one workload and prints a readable report to out.
func run(cfg runConfig, out io.Writer) (*result, error) {
	// A parallel run counts only when the machine has the cores.
	if procs := runtime.GOMAXPROCS(0); cfg.workers > runtime.NumCPU() || cfg.workers > procs {
		return nil, fmt.Errorf("refusing to record: %d workers on nproc=%d, GOMAXPROCS=%d",
			cfg.workers, runtime.NumCPU(), procs)
	}
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d go=%s workers=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.workers)
	seeds := make([]uint64, cfg.w.inputs)
	for j := range seeds {
		seeds[j] = cfg.w.inputSeed(cfg.seed, j)
	}
	fmt.Fprintf(out, "workload %s, seed %d, input seeds %v: closed loop, one client, rounds until %v\n",
		cfg.w.name, cfg.seed, seeds, cfg.seconds)
	src, err := cfg.w.source()
	if err != nil {
		return nil, err
	}
	plain, setupS, err := setUp(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if cfg.trace {
		return runTraced(cfg, src, plain, out)
	}
	return runUntraced(cfg, src, plain, setupS, out)
}

// buildInputs sets up one answer function per input seed.
func buildInputs(cfg runConfig, wrap wrapFunc) ([]answerFunc, error) {
	fns := make([]answerFunc, cfg.w.inputs)
	for j := range fns {
		seed := cfg.w.inputSeed(cfg.seed, j)
		fn, err := cfg.w.setup(seed, cfg.size, cfg.workers, wrap)
		if err != nil {
			return nil, fmt.Errorf("input seed %d: %w", seed, err)
		}
		fns[j] = fn
	}
	return fns, nil
}

// setUp builds the run's inputs in timed groups and returns the last
// build with the median build time.
func setUp(cfg runConfig) ([]answerFunc, float64, error) {
	t0 := time.Now()
	fns, err := buildInputs(cfg, noWrap)
	if err != nil {
		return nil, 0, err
	}
	reps := int(setupGroup/time.Since(t0)) + 1
	perBuild := make([]float64, setupGroups)
	for g := range perBuild {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if fns, err = buildInputs(cfg, noWrap); err != nil {
				return nil, 0, err
			}
		}
		perBuild[g] = time.Since(t0).Seconds() / float64(reps)
	}
	return fns, median(perBuild), nil
}

var errNotFirst = errors.New("answer differs from the run's first answer to its input")

// firsts holds the run's first answer to each input.
type firsts []*answer

// check records a as input j's first answer, or requires it to be
// bit-identical to that answer, counts included.
func (f firsts) check(j int, a *answer) error {
	if f[j] == nil {
		f[j] = a
		return nil
	}
	if a.digest() != f[j].digest() {
		return errNotFirst
	}
	return nil
}

// failures counts failed answers and keeps the first reason.
type failures struct {
	n     int
	first error
}

func (f *failures) add(err error) {
	f.n++
	if f.first == nil {
		f.first = err
	}
}

// rounds answers inputs 0..n-1 in turn, round after round, until a
// round ends at least d after the first began. Every input is answered
// equally often, so where the clock stops weighs no input more.
func rounds(n int, d time.Duration, answer func(j int)) {
	for r, start := 0, time.Now(); r == 0 || time.Since(start) < d; r++ {
		for j := 0; j < n; j++ {
			answer(j)
		}
	}
}

func runUntraced(cfg runConfig, src string, fns []answerFunc, setupS float64, out io.Writer) (*result, error) {
	first := make(firsts, len(fns))
	warm, err := fns[0](src, false, nil)
	if err != nil {
		return nil, fmt.Errorf("first answer: %w", err)
	}
	first[0] = warm

	perInput := make([][]float64, len(fns))
	var all []float64
	var fails failures
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	rounds(len(fns), cfg.seconds, func(j int) {
		t0 := time.Now()
		a, err := fns[j](src, false, nil)
		t := time.Since(t0).Seconds()
		perInput[j] = append(perInput[j], t)
		all = append(all, t)
		if err == nil {
			err = first.check(j, a)
		}
		if err != nil {
			fails.add(err)
		}
	})
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	peak := peakRSSMB()
	n := float64(len(all))
	tail, pct := tailOf(all)

	// answer_s weighs every input alike: the mean of their medians.
	medians := make([]float64, len(fns))
	for j, ts := range perInput {
		medians[j] = median(ts)
		fmt.Fprintf(out, "input seed %d: median %.4g s of %d answers\n", cfg.w.inputSeed(cfg.seed, j), medians[j], len(ts))
	}
	values := map[string]float64{
		"answer_s":    mean(medians),
		"cpu_s":       cpu / n,
		"alloc_mb":    float64(ms1.TotalAlloc-ms0.TotalAlloc) / n / 1e6,
		"peak_rss_mb": peak,
		"setup_s":     setupS,
	}
	fmt.Fprintf(out, "answer_s_tail %.6g s: p%.1f of %d answers\n", tail, pct, len(all))
	return finish(cfg, fns, first, len(all), fails, endToEnd, values, out)
}

func runTraced(cfg runConfig, src string, plain []answerFunc, out io.Writer) (*result, error) {
	counters := modelCounters{}
	traced, err := buildInputs(cfg, counters.wrap)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	first := make(firsts, len(plain))
	if first[0], err = plain[0](src, false, nil); err != nil {
		return nil, fmt.Errorf("first answer: %w", err)
	}
	if _, err := traced[0](src, false, nil); err != nil {
		return nil, fmt.Errorf("first traced answer: %w", err)
	}

	rec := newRecorder()
	var (
		plainS, plainCPU, mallocs, gcs, tracedS []float64
		perAnswer                               []map[string]float64
		fails                                   failures
		ms0, ms1                                runtime.MemStats
	)
	rounds(len(plain), cfg.seconds, func(j int) {
		runtime.ReadMemStats(&ms0)
		c0, t0 := cpuSeconds(), time.Now()
		a, err := plain[j](src, false, nil)
		plainS = append(plainS, time.Since(t0).Seconds())
		plainCPU = append(plainCPU, cpuSeconds()-c0)
		runtime.ReadMemStats(&ms1)
		mallocs = append(mallocs, float64(ms1.Mallocs-ms0.Mallocs))
		gcs = append(gcs, float64(ms1.NumGC-ms0.NumGC))
		if err == nil {
			err = first.check(j, a)
		}
		if err != nil {
			fails.add(err)
		}

		// The traced answer to the same input must equal the untraced.
		before := counters.totals()
		t0 = time.Now()
		var ta *answer
		spans, err := rec.answerSpan(func() (err error) {
			ta, err = traced[j](src, false, rec)
			return err
		})
		tracedS = append(tracedS, time.Since(t0).Seconds())
		if err == nil {
			err = first.check(j, ta)
		}
		if err != nil {
			fails.add(fmt.Errorf("traced: %w", err))
			return
		}
		perAnswer = append(perAnswer, layerValues(cfg.w, ta, spans, counters.totals().minus(before)))
	})
	if len(perAnswer) == 0 {
		return nil, fmt.Errorf("no traced answer succeeded: %w", fails.first)
	}
	if cfg.spanDir != "" {
		if err := rec.write(cfg.spanDir, fmt.Sprintf("%s-seed%d.json", cfg.w.name, cfg.seed)); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	values := map[string]float64{
		"runtime.mallocs":   mean(mallocs),
		"runtime.gc_cycles": mean(gcs),
		"pool.cpu_util":     ratio(sum(plainCPU), sum(plainS)*float64(cfg.workers)),
		"trace.overhead":    median(tracedS)/median(plainS) - 1,
	}
	for name := range perAnswer[0] {
		vs := make([]float64, len(perAnswer))
		for i, v := range perAnswer {
			vs[i] = v[name]
		}
		values[name] = median(vs)
	}
	fmt.Fprintf(out, "%d untraced and %d traced answers\n", len(plainS), len(tracedS))
	return finish(cfg, plain, first, len(plainS)+len(tracedS), fails, perLayer, values, out)
}

// layerValues are one traced answer's per-layer metrics.
func layerValues(w *workload, a *answer, spans map[string]spanTime, models modelTotals) map[string]float64 {
	s := a.stats
	exec := spans[spanExecute]
	v := map[string]float64{
		"sqlparse.parse_s":          spans[spanParse].wall,
		"exec.compile_s":            spans[spanCompile].wall,
		"exec.execute_s":            exec.wall,
		"exec.ns_per_point_world":   ratio(exec.wall*1e9, float64(s.Points*s.Worlds)),
		"exec.row_evals_per_point":  ratio(models.draws[w.rowModel], float64(s.Points)),
		"blackbox.calls":            sum(mapValues(models.draws)),
		"blackbox.s":                models.seconds,
		"blackbox.share":            ratio(models.seconds, exec.cpu),
		"mc.points":                 float64(s.MCPoints),
		"mc.full_sims":              float64(s.FullSims),
		"mc.reused":                 float64(s.Reused),
		"mc.reuse_ratio":            ratio(float64(s.Reused), float64(s.MCPoints)),
		"core.bases":                float64(s.Bases),
		"core.queries":              float64(s.Queries),
		"core.hit_ratio":            ratio(float64(s.Hits), float64(s.Queries)),
		"core.candidates_per_query": ratio(float64(s.Scanned), float64(s.Queries)),
		"pdb.rows_out":              float64(s.RowsOut),
	}
	for _, m := range perLayer {
		if model, ok := strings.CutPrefix(m.name, "blackbox.calls."); ok {
			v[m.name] = models.draws[model]
		}
	}
	return v
}

// finish checks the run's first answer to each input: at full size it
// must be the answer stored for the input, whose comparison with the
// reference is stored with it; at other sizes the reference is computed
// here. It prints the report and assembles the result. Every answer to
// an input equals the first, so a failed check fails every answer of
// the run.
func finish(cfg runConfig, fns []answerFunc, first firsts, attempted int,
	fails failures, defs []metricDef, values map[string]float64, out io.Writer) (*result, error) {
	answerErr, checked := 0.0, 0
	failAll := func(err error) { fails = failures{n: attempted, first: err} }
	for j, a := range first {
		if a == nil {
			continue
		}
		checked++
		seed := cfg.w.inputSeed(cfg.seed, j)
		units, deviation, err := checkAnswer(cfg, fns[j], seed, a)
		if err != nil {
			failAll(fmt.Errorf("input seed %d: %w", seed, err))
			continue
		}
		answerErr = math.Max(answerErr, units)
		if deviation != "" {
			err := fmt.Errorf("input seed %d: %s", seed, deviation)
			if cfg.w.strict {
				failAll(err)
			} else {
				fmt.Fprintf(out, "reported, not failed: %v\n", err)
			}
		}
	}
	res := &result{Correct: fails.n == 0, Attempted: attempted, Failed: fails.n, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("no value for metric %s", m.name)
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}

	fmt.Fprintf(out, "answer check: %d inputs; answer_err %.4g tolerance units\n", checked, answerErr)
	fmt.Fprintf(out, "failed_frac %.4g (%d of %d answers)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if fails.first != nil {
		fmt.Fprintf(out, "first failure: %v\n", fails.first)
	}
	for _, m := range defs {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	return res, nil
}

// checkAnswer checks a, the run's first answer to the input seed that
// fn answers, and returns its deviation from the reference answer in
// tolerance units and, when that is beyond the tolerance, how. At full
// size a must be the answer stored for the input.
func checkAnswer(cfg runConfig, fn answerFunc, seed uint64, a *answer) (float64, string, error) {
	if cfg.size == cfg.w.full {
		st, ok, err := storedFor(cfg.w.name, seed)
		if err != nil {
			return 0, "", err
		}
		if !ok {
			return 0, "", errors.New("no answer stored for it")
		}
		return st.check(a.valuesDigest())
	}
	src, err := cfg.w.source()
	if err != nil {
		return 0, "", err
	}
	ref, err := fn(src, true, nil)
	if err != nil {
		return 0, "", fmt.Errorf("reference answer: %w", err)
	}
	st := newStored(a, ref)
	return st.check(st.Answer)
}

// storeReferences answers every input of the workload's corpus and its
// reference, and stores the answers with their comparison in dir. A
// strict workload refuses to store an answer beyond the tolerance.
func storeReferences(cfg runConfig, dir string) error {
	src, err := cfg.w.source()
	if err != nil {
		return err
	}
	refs := map[string]stored{}
	for seed := uint64(0); seed < uint64(cfg.w.corpus); seed++ {
		fn, err := cfg.w.setup(seed, cfg.size, cfg.workers, noWrap)
		if err != nil {
			return err
		}
		a, err := fn(src, false, nil)
		if err != nil {
			return err
		}
		r, err := fn(src, true, nil)
		if err != nil {
			return err
		}
		st := newStored(a, r)
		if st.Deviation != "" && cfg.w.strict {
			return fmt.Errorf("input seed %d: %s", seed, st.Deviation)
		}
		refs[strconv.FormatUint(seed, 10)] = st
		fmt.Fprintf(os.Stderr, "%s input seed %d: answer_err %s %s\n", cfg.w.name, seed, st.AnswerErr, st.Deviation)
	}
	return writeStored(dir, cfg.w.name, refs)
}

// tailOf returns the highest percentile of xs with at least ten values
// beyond it (the 11th largest), and which percentile that is. With ten
// or fewer values it returns the maximum.
func tailOf(xs []float64) (float64, float64) {
	s := sorted(xs)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func mapValues(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rusage reads the process's resource usage. Getrusage fails only on
// invalid arguments.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user and system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set, in MB.
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}
