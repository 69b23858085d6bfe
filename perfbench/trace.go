package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/rng"
)

// Span names: one per call into a layer's public function, under the
// answer span that encloses them.
const (
	spanAnswer  = "answer"
	spanParse   = "sqlparse.parse"
	spanCompile = "exec.compile" // CompileScenario or BuildPDBPlan
	spanExecute = "exec.execute" // optimize.Run, exec.RunGraph or pdb.RunDistribution
)

// span is one timed call, recorded from outside the program. Spans of
// one answer share its Answer id; Call names the public function. CPUNS
// is the process CPU time spent during the span, on every thread.
type span struct {
	Answer  int    `json:"answer"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Call    string `json:"call,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	CPUNS   int64  `json:"cpu_ns"`
}

// spanTime is a span's wall and CPU seconds.
type spanTime struct{ wall, cpu float64 }

// recorder keeps the spans of a traced run in memory until the run
// ends. A nil recorder records nothing, which is the untraced path.
type recorder struct {
	origin time.Time
	answer int
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// do runs fn as a child span of the current answer.
func (r *recorder) do(name, call string, fn func() error) error {
	if r == nil {
		return fn()
	}
	s, err := r.timed(fn)
	s.Name, s.Parent, s.Call = name, spanAnswer, call
	r.spans = append(r.spans, s)
	return err
}

// answerSpan runs one answer as a root span and returns the times of
// its child spans, by name.
func (r *recorder) answerSpan(fn func() error) (map[string]spanTime, error) {
	r.answer++
	first := len(r.spans)
	s, err := r.timed(fn)
	s.Name = spanAnswer
	children := map[string]spanTime{}
	for _, c := range r.spans[first:] {
		t := children[c.Name]
		t.wall += float64(c.EndNS-c.StartNS) / 1e9
		t.cpu += float64(c.CPUNS) / 1e9
		children[c.Name] = t
	}
	r.spans = append(r.spans, s)
	return children, err
}

func (r *recorder) timed(fn func() error) (span, error) {
	cpu0 := cpuSeconds()
	start := time.Since(r.origin)
	err := fn()
	end := time.Since(r.origin)
	cpu := cpuSeconds() - cpu0
	return span{Answer: r.answer, StartNS: int64(start), EndNS: int64(end), CPUNS: int64(cpu * 1e9)}, err
}

// write stores the spans as JSON in dir.
func (r *recorder) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// modelCounter accumulates one model's draws and the wall time spent in
// it, across every worker goroutine.
type modelCounter struct {
	draws atomic.Int64
	nanos atomic.Int64
}

func (c *modelCounter) add(draws int, start time.Time) {
	c.nanos.Add(int64(since(start)))
	c.draws.Add(int64(draws))
}

// timeEvery is the sampling interval for the time of scalar draws.
// Reading the clock twice costs about 110 ns on a 2-vCPU cloud VM,
// several times a scalar draw, so only every timeEvery-th draw is
// timed and stands for the others.
const timeEvery = 64

// clockCost is what an empty timed interval reads: the median of many.
var clockCost = func() time.Duration {
	ds := make([]float64, 1001)
	for i := range ds {
		ds[i] = float64(time.Since(time.Now()))
	}
	return time.Duration(median(ds))
}()

// since is the time since start, less the cost of reading the clock.
func since(start time.Time) time.Duration {
	return max(time.Since(start)-clockCost, 0)
}

// modelCounters holds a counter per model name.
type modelCounters map[string]*modelCounter

// modelTotals are draws per model and the seconds spent in all models.
type modelTotals struct {
	draws   map[string]float64
	seconds float64
}

func (mc modelCounters) totals() modelTotals {
	t := modelTotals{draws: map[string]float64{}}
	for name, c := range mc {
		t.draws[name] = float64(c.draws.Load())
		t.seconds += float64(c.nanos.Load()) / 1e9
	}
	return t
}

// minus returns the work done between snapshot u and t.
func (t modelTotals) minus(u modelTotals) modelTotals {
	d := modelTotals{draws: map[string]float64{}, seconds: t.seconds - u.seconds}
	for name, n := range t.draws {
		d.draws[name] = n - u.draws[name]
	}
	return d
}

// wrap returns b behind a counting wrapper that keeps b's BlockBox and
// StreamBox capabilities, so the engine and the PDB executor take the
// same lanes as with b itself. Models of one name share a counter.
func (mc modelCounters) wrap(b blackbox.Box) blackbox.Box {
	c := mc[b.Name()]
	if c == nil {
		c = &modelCounter{}
		mc[b.Name()] = c
	}
	base := countedBox{b, c}
	bb, isBlock := b.(blackbox.BlockBox)
	sb, isStream := b.(blackbox.StreamBox)
	switch {
	case isBlock && isStream:
		return countedBlockStreamBox{base, countedBlock{bb, c}, countedStream{sb, c}}
	case isBlock:
		return countedBlockBox{base, countedBlock{bb, c}}
	case isStream:
		return countedStreamBox{base, countedStream{sb, c}}
	}
	return base
}

// countedBox counts and times scalar draws.
type countedBox struct {
	box blackbox.Box
	c   *modelCounter
}

func (b countedBox) Name() string { return b.box.Name() }
func (b countedBox) Arity() int   { return b.box.Arity() }

func (b countedBox) Eval(args []float64, r *rng.Rand) float64 {
	if b.c.draws.Add(1)%timeEvery != 0 {
		return b.box.Eval(args, r)
	}
	start := time.Now()
	v := b.box.Eval(args, r)
	b.c.nanos.Add(int64(since(start)) * timeEvery)
	return v
}

// countedBlock counts and times block draws, one per seed.
type countedBlock struct {
	bb blackbox.BlockBox
	c  *modelCounter
}

func (b countedBlock) EvalBlock(args []float64, out []float64, seeds []uint64) {
	start := time.Now()
	b.bb.EvalBlock(args, out, seeds)
	b.c.add(len(seeds), start)
}

// countedStream counts and times stream draws, one per active world.
type countedStream struct {
	sb blackbox.StreamBox
	c  *modelCounter
}

func (b countedStream) EvalStream(args []float64, out []float64, rands []rng.Rand, active []bool) {
	start := time.Now()
	b.sb.EvalStream(args, out, rands, active)
	draws := len(rands)
	if active != nil {
		draws = 0
		for _, on := range active[:len(rands)] {
			if on {
				draws++
			}
		}
	}
	b.c.add(draws, start)
}

type countedBlockBox struct {
	countedBox
	countedBlock
}

type countedStreamBox struct {
	countedBox
	countedStream
}

type countedBlockStreamBox struct {
	countedBox
	countedBlock
	countedStream
}
