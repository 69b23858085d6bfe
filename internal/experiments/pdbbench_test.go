package experiments

import (
	"strings"
	"testing"

	"jigsaw/internal/pdb"
)

func TestPDBBenchQueriesBuildAndRun(t *testing.T) {
	// The grid's plans must build and execute at a tiny scale (the
	// full measurement loop is jigsaw-bench's job).
	cfg := Quick()
	cfg.Users = 50
	queries, err := pdbBenchQueries(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 3 {
		t.Fatalf("queries = %d", len(queries))
	}
	for _, q := range queries {
		opts := pdb.WorldsOptions{Worlds: 20, MasterSeed: cfg.MasterSeed}
		if _, err := pdb.RunDistribution(q.plan, q.params, opts); err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
	}
}

func TestCompareSweepBenchSuiteMismatch(t *testing.T) {
	cur := &SweepBenchReport{Suite: "pdb", Samples: 100,
		Results: []SweepBenchResult{{Name: "x", NsPerPoint: 1, Points: 1}}}
	base := &SweepBenchReport{Suite: "sweep", Samples: 100,
		Results: []SweepBenchResult{{Name: "x", NsPerPoint: 1, Points: 1}}}
	if _, err := CompareSweepBench(cur, base, 0.2); err == nil || !strings.Contains(err.Error(), "suite mismatch") {
		t.Fatalf("suite mismatch not rejected: %v", err)
	}
	// Legacy baselines without the field stay comparable.
	base.Suite = ""
	cur.Suite = "sweep"
	if _, err := CompareSweepBench(cur, base, 0.2); err != nil {
		t.Fatalf("legacy baseline rejected: %v", err)
	}
}
