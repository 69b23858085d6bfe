package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"testing"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/rng"
)

func tinyConfig(w *workload, trace bool) runConfig {
	return runConfig{w: w, seed: 3, size: w.tiny, workers: min(2, runtime.NumCPU()), trace: trace}
}

// TestWorkloadsSmoke runs every workload at its tiny size, untraced and
// traced, and requires every metric BENCHMARK.json names, with its
// unit, and a passing answer check.
func TestWorkloadsSmoke(t *testing.T) {
	bench := readBenchmark(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(tinyConfig(w, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestCorpusStored requires a stored answer for every corpus input of
// every workload, and no other, so that every run seed is checked.
func TestCorpusStored(t *testing.T) {
	for _, w := range workloads {
		refs, err := readStored(refFiles.ReadFile, "ref/"+w.name+".json")
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) != w.corpus {
			t.Errorf("%s: %d stored answers, corpus of %d", w.name, len(refs), w.corpus)
		}
		for seed := 0; seed < w.corpus; seed++ {
			st, ok := refs[strconv.Itoa(seed)]
			if !ok {
				t.Errorf("%s: no answer stored for input seed %d", w.name, seed)
				continue
			}
			if _, _, err := st.check(st.Answer); err != nil {
				t.Errorf("%s input seed %d: %v", w.name, seed, err)
			}
			if w.strict && st.Deviation != "" {
				t.Errorf("%s input seed %d: stored answer deviates: %s", w.name, seed, st.Deviation)
			}
		}
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, perfbench has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in perfbench", i, w.Name, workloads[i].name)
		}
	}
	return b
}

// TestCountedBoxForwardsLanes checks that the counting wrapper keeps
// exactly the BlockBox and StreamBox capabilities of the model it
// wraps, draws bit-identically through each, and counts every draw.
func TestCountedBoxForwardsLanes(t *testing.T) {
	for _, tc := range []struct {
		box  blackbox.Box
		args []float64
	}{
		{cloudDemand(), []float64{30, 12}},
		{blackbox.NewCapacity(), []float64{30, 8, 24}},
		{blackbox.UserUsage{}, []float64{40, 3, 1.2, 1.01, 0.2}},
		{blackbox.NewUserSelection(20, 5), []float64{40}},
		{blackbox.Func{FuncName: "Plain", NArgs: 1, Fn: func(a []float64, r *rng.Rand) float64 { return a[0] * r.Float64() }}, []float64{2}},
	} {
		counters := modelCounters{}
		wrapped := counters.wrap(tc.box)
		name := tc.box.Name()
		_, isBlock := tc.box.(blackbox.BlockBox)
		_, isStream := tc.box.(blackbox.StreamBox)
		wb, wrappedBlock := wrapped.(blackbox.BlockBox)
		ws, wrappedStream := wrapped.(blackbox.StreamBox)
		if wrappedBlock != isBlock || wrappedStream != isStream {
			t.Fatalf("%s: wrapper block=%v stream=%v, model block=%v stream=%v",
				name, wrappedBlock, wrappedStream, isBlock, isStream)
		}
		draws := int64(0)

		var r1, r2 rng.Rand
		r1.Seed(7)
		r2.Seed(7)
		if got, want := wrapped.Eval(tc.args, &r1), tc.box.Eval(tc.args, &r2); got != want {
			t.Errorf("%s: Eval %v, want %v", name, got, want)
		}
		draws++

		seeds := []uint64{1, 2, 3, 4, 5}
		if isBlock {
			got, want := make([]float64, len(seeds)), make([]float64, len(seeds))
			wb.EvalBlock(tc.args, got, seeds)
			tc.box.(blackbox.BlockBox).EvalBlock(tc.args, want, seeds)
			if !equalBits(got, want) {
				t.Errorf("%s: EvalBlock %v, want %v", name, got, want)
			}
			draws += int64(len(seeds))
		}
		if isStream {
			got, want := make([]float64, len(seeds)), make([]float64, len(seeds))
			gotRands, wantRands := make([]rng.Rand, len(seeds)), make([]rng.Rand, len(seeds))
			for i, s := range seeds {
				gotRands[i].Seed(s)
				wantRands[i].Seed(s)
			}
			active := []bool{true, false, true, true, false}
			ws.EvalStream(tc.args, got, gotRands, active)
			tc.box.(blackbox.StreamBox).EvalStream(tc.args, want, wantRands, active)
			if !equalBits(got, want) || gotRands[0] != wantRands[0] || gotRands[3] != wantRands[3] {
				t.Errorf("%s: EvalStream %v, want %v", name, got, want)
			}
			draws += 3
		}
		if got := counters[name].draws.Load(); got != draws {
			t.Errorf("%s: counted %d draws, want %d", name, got, draws)
		}
	}
}

// TestTracedAnswersEqualUntraced answers every workload's first input
// at its tiny size through plain and counted models, with and without
// span recording, and requires identical answers, counts included.
func TestTracedAnswersEqualUntraced(t *testing.T) {
	for _, w := range workloads {
		cfg := tinyConfig(w, true)
		src, err := w.source()
		if err != nil {
			t.Fatal(err)
		}
		plain, err := buildInputs(cfg, noWrap)
		if err != nil {
			t.Fatal(err)
		}
		counters := modelCounters{}
		traced, err := buildInputs(cfg, counters.wrap)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain[0](src, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := traced[0](src, false, newRecorder())
		if err != nil {
			t.Fatal(err)
		}
		if got.digest() != want.digest() {
			t.Errorf("%s: traced answer differs from the untraced one", w.name)
		}
		if counters[w.rowModel].draws.Load() == 0 {
			t.Errorf("%s: no %s draws counted", w.name, w.rowModel)
		}
	}
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
