package experiments

import (
	"fmt"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
)

// Fig10Row is one basis-count point of Fig. 10: per-point time of each
// index strategy relative to the naive array scan, in a static
// 1000-point parameter space.
type Fig10Row struct {
	Bases int
	// Relative maps strategy → time relative to Array (Array = 1).
	Relative map[string]float64
	// CandidatesScanned maps strategy → FindMapping attempts, the
	// work the indexes exist to avoid.
	CandidatesScanned map[string]int
}

// Fig11Row is one point of Fig. 11: absolute per-point time while the
// space grows with the basis count (basis = 10% of space).
type Fig11Row struct {
	Bases int
	// SecPerPoint maps strategy → seconds per point.
	SecPerPoint map[string]float64
	// CandidatesScanned maps strategy → FindMapping attempts, the
	// work the indexes exist to avoid.
	CandidatesScanned map[string]int
}

// runSynthSweep sweeps SynthBasis with B classes over a space of the
// given size under one index strategy, returning elapsed seconds per
// point and store statistics.
func runSynthSweep(cfg Config, b, points int, kind mc.IndexKind) (secPerPoint float64, scanned, bases int) {
	box := blackbox.NewSynthBasis(b)
	box.Work = 40 // emulate a heavier model so lookup cost is visible but not everything
	d, err := param.Range("point", 0, float64(points-1), 1)
	if err != nil {
		panic(err)
	}
	space := param.MustSpace(d)
	ev := mc.MustBindBox(box, space, "point")
	var st mc.SweepStats
	elapsed := timeIt(cfg.Trials, func() {
		eng := mc.MustNew(mc.Options{
			Samples: cfg.Samples, FingerprintLen: cfg.FingerprintLen,
			MasterSeed: cfg.MasterSeed, Reuse: true, Index: kind, Workers: cfg.Workers,
		})
		_, st, err = eng.Sweep(ev)
		if err != nil {
			panic(err)
		}
	})
	return elapsed.Seconds() / float64(points), st.Store.CandidatesScanned, st.Store.Bases
}

// Figure10 reproduces the static-space indexing comparison (§6.3):
// 1000 parameter points, basis counts from 10 to 400, each strategy's
// time normalized to the array scan.
func Figure10(cfg Config) ([]Fig10Row, *Table, error) {
	cfg = cfg.withDefaults()
	const points = 1000
	basisCounts := []int{10, 25, 50, 100, 200, 400}

	var rows []Fig10Row
	for _, b := range basisCounts {
		row := Fig10Row{Bases: b, Relative: map[string]float64{}, CandidatesScanned: map[string]int{}}
		arraySec, arrayScanned, _ := runSynthSweep(cfg, b, points, mc.IndexArray)
		row.Relative["Array"] = 1
		row.CandidatesScanned["Array"] = arrayScanned
		for _, kind := range []mc.IndexKind{mc.IndexNormalization, mc.IndexSortedSID} {
			sec, scanned, _ := runSynthSweep(cfg, b, points, kind)
			row.Relative[kind.String()] = sec / arraySec
			row.CandidatesScanned[kind.String()] = scanned
		}
		rows = append(rows, row)
	}

	table := &Table{
		Title:   "Figure 10: indexing in a static parameter space (relative to Array)",
		Columns: []string{"Bases", "Array", "Normalization", "SortedSID", "Array scans", "Norm scans", "SID scans"},
		Notes: []string{
			"indexes asymptotically approach ~10% savings as sample generation dominates (paper §6.3)",
		},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(r.Bases),
			fmtRatio(r.Relative["Array"]),
			fmtRatio(r.Relative["Normalization"]),
			fmtRatio(r.Relative["SortedSID"]),
			fmt.Sprint(r.CandidatesScanned["Array"]),
			fmt.Sprint(r.CandidatesScanned["Normalization"]),
			fmt.Sprint(r.CandidatesScanned["SortedSID"]),
		})
	}
	return rows, table, nil
}

// Figure11 reproduces the growing-space indexing comparison (§6.3):
// the basis count is fixed at 10% of the space, both scaled together;
// the array scan grows linearly while the hash indexes stay sub-linear.
func Figure11(cfg Config) ([]Fig11Row, *Table, error) {
	cfg = cfg.withDefaults()
	basisCounts := []int{50, 100, 200, 350, 500}

	var rows []Fig11Row
	for _, b := range basisCounts {
		points := b * 10
		row := Fig11Row{Bases: b, SecPerPoint: map[string]float64{}, CandidatesScanned: map[string]int{}}
		for _, kind := range []mc.IndexKind{mc.IndexArray, mc.IndexNormalization, mc.IndexSortedSID} {
			sec, scanned, bases := runSynthSweep(cfg, b, points, kind)
			row.SecPerPoint[kind.String()] = sec
			row.CandidatesScanned[kind.String()] = scanned
			if bases != b {
				return nil, nil, fmt.Errorf("experiments: SynthBasis produced %d bases, want %d", bases, b)
			}
		}
		rows = append(rows, row)
	}

	table := &Table{
		Title:   "Figure 11: indexing, growing the parameter space with basis size (s/point)",
		Columns: []string{"Bases", "Array s/pt", "Normalization s/pt", "SortedSID s/pt", "Array scans", "Norm scans", "SID scans"},
		Notes: []string{
			"space = 10 × bases; array scan scales linearly with basis size, hash indexes sub-linearly",
		},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(r.Bases),
			fmt.Sprintf("%.6f", r.SecPerPoint["Array"]),
			fmt.Sprintf("%.6f", r.SecPerPoint["Normalization"]),
			fmt.Sprintf("%.6f", r.SecPerPoint["SortedSID"]),
			fmt.Sprint(r.CandidatesScanned["Array"]),
			fmt.Sprint(r.CandidatesScanned["Normalization"]),
			fmt.Sprint(r.CandidatesScanned["SortedSID"]),
		})
	}
	return rows, table, nil
}
