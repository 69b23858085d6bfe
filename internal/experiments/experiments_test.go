package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	d := Defaults()
	if c.Samples != d.Samples || c.Users != d.Users || c.Trials != d.Trials {
		t.Fatalf("defaults not applied: %+v", c)
	}
	q := Quick()
	if q.Samples >= d.Samples {
		t.Fatal("Quick config not smaller than Defaults")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"wide-cell", "3"}},
		Notes:   []string{"a note"},
	}
	s := tbl.String()
	for _, frag := range []string{"== demo ==", "long-column", "wide-cell", "note: a note"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("rendered table missing %q:\n%s", frag, s)
		}
	}
}

func TestFigure7Shape(t *testing.T) {
	// Timing-shape assertions are sensitive to scheduler noise when
	// the full test suite shares a loaded (possibly single-core)
	// machine, so retry the whole measurement a few times; a real
	// shape regression fails all attempts. Under the race detector it
	// checks the rows but not their timing shape (raceEnabled).
	const attempts = 3
	var lastErr string
	for attempt := 0; attempt < attempts; attempt++ {
		cfg := Quick()
		cfg.Samples = 60
		cfg.Users = 400
		rows, table, err := Figure7(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("rows = %d", len(rows))
		}
		byName := map[string]Fig7Row{}
		for _, r := range rows {
			byName[r.Model] = r
			if r.WrapperSecPerPC <= 0 || r.CoreSecPerPC <= 0 {
				t.Fatalf("%s: non-positive timing %+v", r.Model, r)
			}
		}
		if !strings.Contains(table.String(), "UserSelect") {
			t.Fatal("table missing UserSelect row")
		}
		if raceEnabled {
			return
		}
		lastErr = ""
		// Shape (paper Fig. 7): wrapper much slower on model-only
		// queries…
		for _, m := range []string{"Demand", "Capacity", "Overload"} {
			if byName[m].WrapperSecPerPC < byName[m].CoreSecPerPC {
				lastErr = fmt.Sprintf("%s: wrapper (%g) unexpectedly faster than core (%g)",
					m, byName[m].WrapperSecPerPC, byName[m].CoreSecPerPC)
			}
		}
		// …and faster on the data-dependent model.
		us := byName["UserSelect"]
		if us.WrapperSecPerPC > us.CoreSecPerPC {
			lastErr = fmt.Sprintf("UserSelect: wrapper (%g) slower than core (%g); set-oriented win lost",
				us.WrapperSecPerPC, us.CoreSecPerPC)
		}
		if lastErr == "" {
			return
		}
	}
	t.Errorf("shape failed on all %d attempts; last: %s", attempts, lastErr)
}

func TestFigure8Shape(t *testing.T) {
	cfg := Quick()
	cfg.Samples = 150
	cfg.Users = 200
	cfg.MarkovInstances = 150
	rows, table, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig8Row{}
	for _, r := range rows {
		byName[r.Model] = r
	}
	// The speedups are asserted on work counts, not wall time, so the
	// test holds under any CPU contention.
	// Usage and Capacity get large speedups from few bases.
	if byName["Usage"].WorkRatio() < 3 {
		t.Errorf("Usage work ratio = %g, want >> 1", byName["Usage"].WorkRatio())
	}
	if byName["Usage"].Bases > 3 {
		t.Errorf("Usage bases = %d, want ~1", byName["Usage"].Bases)
	}
	if byName["Capacity"].WorkRatio() < 2 {
		t.Errorf("Capacity work ratio = %g, want > 2", byName["Capacity"].WorkRatio())
	}
	if byName["Capacity"].Bases >= byName["Capacity"].Points/4 {
		t.Errorf("Capacity bases = %d of %d points; reuse broken",
			byName["Capacity"].Bases, byName["Capacity"].Points)
	}
	// Overload's boolean output limits reuse: smaller speedup than
	// Capacity on the same space (paper: ~2x vs ~100x).
	if byName["Overload"].WorkRatio() >= byName["Capacity"].WorkRatio() {
		t.Errorf("Overload work ratio %g >= Capacity work ratio %g; boolean limit lost",
			byName["Overload"].WorkRatio(), byName["Capacity"].WorkRatio())
	}
	// Usage's weekly totals are exact scale images of one another, so
	// its reuse costs no answer: every point is compared, none is off.
	// Capacity's and Overload's errors are reported, not bounded: their
	// affine matches are not certified on every sample.
	if e := byName["Usage"].Err; e.Points != byName["Usage"].Points || e.Off != 0 {
		t.Errorf("Usage answer error = %+v over %d points, want every point compared and none off", e, byName["Usage"].Points)
	}
	// MarkovStep benefits from jumps.
	if byName["MarkovStep"].WorkRatio() < 2 {
		t.Errorf("MarkovStep work ratio = %g, want > 2", byName["MarkovStep"].WorkRatio())
	}
	if !strings.Contains(table.String(), "MarkovStep") {
		t.Fatal("table missing MarkovStep")
	}
}

func TestFigure9Shape(t *testing.T) {
	cfg := Quick()
	cfg.Samples = 100
	rows, table, err := Figure9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Bases grow with structure size…
	first, last := rows[0], rows[len(rows)-1]
	if last.Bases <= first.Bases {
		t.Errorf("bases did not grow with structure size: %d -> %d", first.Bases, last.Bases)
	}
	// …but sub-linearly relative to the structure-size growth.
	growth := float64(last.Bases) / float64(maxInt(first.Bases, 1))
	sizeGrowth := float64(last.StructureSize) / float64(maxInt(first.StructureSize, 1))
	if growth > sizeGrowth*3 {
		t.Errorf("basis growth %.1fx vs size growth %.1fx: not sub-linear-ish", growth, sizeGrowth)
	}
	for _, r := range rows {
		if r.Bases > r.Points/3 {
			t.Errorf("structure %d: %d bases for %d points", r.StructureSize, r.Bases, r.Points)
		}
	}
	if !strings.Contains(table.String(), "Structure") {
		t.Fatal("table broken")
	}
}

func TestFigure10Shape(t *testing.T) {
	cfg := Quick()
	cfg.Samples = 60
	rows, table, err := Figure10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The hash indexes must scan far fewer candidates than the array
	// at large basis counts (the figure's core claim; time ratios are
	// noisy in CI, candidate counts are deterministic).
	last := rows[len(rows)-1]
	if last.CandidatesScanned["Normalization"]*10 > last.CandidatesScanned["Array"] {
		t.Errorf("normalization scanned %d vs array %d",
			last.CandidatesScanned["Normalization"], last.CandidatesScanned["Array"])
	}
	if last.CandidatesScanned["SortedSID"]*10 > last.CandidatesScanned["Array"] {
		t.Errorf("sorted-SID scanned %d vs array %d",
			last.CandidatesScanned["SortedSID"], last.CandidatesScanned["Array"])
	}
	if !strings.Contains(table.String(), "Normalization") {
		t.Fatal("table broken")
	}
}

func TestFigure11Shape(t *testing.T) {
	cfg := Quick()
	cfg.Samples = 50
	cfg.Trials = 1
	rows, _, err := Figure11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The array scan's work grows with the basis count; the
	// normalization index's must grow strictly less. Candidate counts
	// are deterministic, so the claim holds on any machine, where the
	// wall times behind it drown in a loaded host's noise.
	first, last := rows[0].CandidatesScanned, rows[len(rows)-1].CandidatesScanned
	if last["Array"] <= first["Array"] {
		t.Fatalf("array scans %d -> %d do not grow with the basis count", first["Array"], last["Array"])
	}
	// normGrowth < arrayGrowth, cross-multiplied.
	if last["Normalization"]*first["Array"] >= last["Array"]*first["Normalization"] {
		t.Errorf("normalization scans %d -> %d grow no less than array scans %d -> %d",
			first["Normalization"], last["Normalization"], first["Array"], last["Array"])
	}
}

func TestFigure12Shape(t *testing.T) {
	cfg := Quick()
	cfg.MarkovInstances = 300
	cfg.MarkovSteps = 96
	rows, table, err := Figure12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := rows[0] // branching 1e-5
	last := rows[len(rows)-1]
	// Jigsaw must do far less work at low branching…
	if first.JigsawInvocations*3 > first.NaiveInvocations {
		t.Errorf("low branching: jigsaw %d invocations vs naive %d",
			first.JigsawInvocations, first.NaiveInvocations)
	}
	// …and lose (or at least stop winning) at high branching.
	if last.JigsawInvocations < first.JigsawInvocations {
		t.Errorf("jigsaw work should grow with branching: %d -> %d",
			first.JigsawInvocations, last.JigsawInvocations)
	}
	if !strings.Contains(table.String(), "Branching") {
		t.Fatal("table broken")
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestCompareSweepBench(t *testing.T) {
	base := &SweepBenchReport{Results: []SweepBenchResult{
		{Name: "sweep/a", NsPerPoint: 100},
		{Name: "sweep/b", NsPerPoint: 1000},
		{Name: "sweep/gone", NsPerPoint: 50},
	}}
	cur := &SweepBenchReport{Results: []SweepBenchResult{
		{Name: "sweep/a", NsPerPoint: 115},  // +15%: within budget
		{Name: "sweep/b", NsPerPoint: 1300}, // +30%: regressed
		{Name: "sweep/new", NsPerPoint: 10}, // no baseline: skipped
	}}
	regs, err := CompareSweepBench(cur, base, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %v", len(regs), regs)
	}
	if regs[0].Name != "sweep/b" || regs[0].Ratio < 1.29 || regs[0].Ratio > 1.31 {
		t.Fatalf("unexpected regression %+v", regs[0])
	}
	if _, err := CompareSweepBench(&SweepBenchReport{Samples: 200}, &SweepBenchReport{Samples: 1000}, 0.20); err == nil {
		t.Fatal("scale mismatch not rejected")
	}
	disjoint := &SweepBenchReport{Results: []SweepBenchResult{{Name: "sweep/renamed", NsPerPoint: 1}}}
	if _, err := CompareSweepBench(disjoint, base, 0.20); err == nil {
		t.Fatal("comparison matching zero cells not rejected")
	}
}

func TestSweepBenchReadWriteRoundTrip(t *testing.T) {
	in := &SweepBenchReport{
		GoVersion: "go-test", Samples: 10, FingerprintLen: 2, Points: 4,
		Results: []SweepBenchResult{{Name: "sweep/x", Index: "Array", Points: 4, NsPerPoint: 42}},
	}
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSweepBench(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip diverged:\nin:  %+v\nout: %+v", in, out)
	}
}
