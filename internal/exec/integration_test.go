package exec

import (
	"math"
	"testing"

	"jigsaw/internal/mc"
	"jigsaw/internal/param"
	"jigsaw/internal/pdb"
	"jigsaw/internal/sqlparse"
)

// TestEnginesAgreeAcrossTheSpace cross-validates the two execution
// substrates point by point over a sample of the Fig. 1 space: the
// lightweight compiled path and the PDB interpretation path must
// produce bit-identical estimates under a shared master seed, for
// every column.
func TestEnginesAgreeAcrossTheSpace(t *testing.T) {
	script, err := sqlparse.Parse(figure1Source)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := CompileScenario(script, stdRegistry())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPDBPlan(script.Selects[0], fig1DB())
	if err != nil {
		t.Fatal(err)
	}

	const seed = 0xA11CE
	const worlds = 300
	light := map[string]*mc.Engine{}
	for _, col := range scenario.Columns {
		light[col] = mc.MustNew(mc.Options{Samples: worlds, MasterSeed: seed, Workers: 1})
	}

	probes := []param.Point{
		{"current_week": 0, "purchase1": 0, "purchase2": 0, "feature_release": 12},
		{"current_week": 24, "purchase1": 8, "purchase2": 16, "feature_release": 36},
		{"current_week": 52, "purchase1": 48, "purchase2": 4, "feature_release": 44},
	}
	for _, p := range probes {
		dist, err := pdb.RunDistribution(plan, map[string]float64(p),
			pdb.WorldsOptions{Worlds: worlds, MasterSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range scenario.Columns {
			ev, err := scenario.ColumnEval(col)
			if err != nil {
				t.Fatal(err)
			}
			res, _ := light[col].EvaluatePoint(ev, valueRow(scenario, p))
			got := res.Summary
			want, err := dist.CellByName(0, col)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Mean-want.Mean) > 1e-9*(1+math.Abs(want.Mean)) {
				t.Fatalf("%s at %v: light %g vs pdb %g", col, p, got.Mean, want.Mean)
			}
			if math.Abs(got.StdDev-want.StdDev) > 1e-9*(1+want.StdDev) {
				t.Fatalf("%s at %v: σ light %g vs pdb %g", col, p, got.StdDev, want.StdDev)
			}
		}
	}
}

// TestGraphReuseMatchesNaiveGraph compares a reuse-enabled GRAPH sweep
// against a reuse-disabled one: identical series, fewer simulations.
//
// The sweep crosses purchase structures, where m=10 fingerprints can
// collide across adjacent weeks whose online-probability differs — the
// §6.2 "insufficient fingerprint length" false positive (observed in
// practice at week 8 of this very scenario). ValidationSamples
// re-validates every match on extra paired samples, which restores
// bit-exact agreement with the naive sweep.
func TestGraphReuseMatchesNaiveGraph(t *testing.T) {
	script, err := sqlparse.Parse(figure1Source + graphSource)
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileScenario(script, stdRegistry())
	if err != nil {
		t.Fatal(err)
	}
	fixed := param.Point{"purchase1": 4, "purchase2": 20, "feature_release": 36}
	withReuse, err := RunGraph(s, script.Graph, fixed,
		mc.Options{Samples: 150, Reuse: true, Workers: 1, ValidationSamples: 140})
	if err != nil {
		t.Fatal(err)
	}
	without, err := RunGraph(s, script.Graph, fixed,
		mc.Options{Samples: 150, Reuse: false, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for si := range withReuse.Series {
		a, b := withReuse.Series[si], without.Series[si]
		for i := range a.Y {
			if math.Abs(a.Y[i]-b.Y[i]) > 1e-9*(1+math.Abs(b.Y[i])) {
				t.Fatalf("series %s point %d: reuse %g vs naive %g", a.Label, i, a.Y[i], b.Y[i])
			}
		}
	}
	if withReuse.Stats.Reused == 0 || without.Stats.Reused != 0 {
		t.Fatalf("reuse accounting wrong: %+v vs %+v", withReuse.Stats, without.Stats)
	}
}
