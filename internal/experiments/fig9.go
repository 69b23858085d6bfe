package experiments

import (
	"fmt"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/mc"
	"jigsaw/internal/param"
)

// Fig9Row is one structure-size point of Fig. 9: per-point time for
// each indexing strategy, plus the resulting basis count.
type Fig9Row struct {
	// StructureSize is the width (in weeks) of the post-purchase
	// uncertainty structure, controlled through the mean bring-up
	// delay.
	StructureSize int
	// MsPerPoint maps index strategy name to per-point milliseconds.
	MsPerPoint map[string]float64
	// Bases is the basis count (identical across strategies; indexes
	// change lookup cost, never answers).
	Bases int
	// Points is the swept space size.
	Points int
	// Err is the reuse sweeps' answer error against a sweep with reuse
	// off, the worst over the strategies.
	Err AnswerError
}

// Figure9 reproduces the Capacity structure-size experiment: larger
// bring-up-delay structures create more distinct distributions around
// each purchase, but the basis count grows sub-linearly because
// Jigsaw reuses matching offsets across purchases (§6.2).
func Figure9(cfg Config) ([]Fig9Row, *Table, error) {
	cfg = cfg.withDefaults()

	weekD, err := param.Range("current_week", 0, float64(cfg.Weeks), 1)
	if err != nil {
		return nil, nil, err
	}
	p1D, err := param.Range("purchase1", 0, float64(cfg.Weeks), float64(cfg.PurchaseStep))
	if err != nil {
		return nil, nil, err
	}
	p2D, err := param.Range("purchase2", 0, float64(cfg.Weeks), float64(cfg.PurchaseStep))
	if err != nil {
		return nil, nil, err
	}
	space := param.MustSpace(weekD, p1D, p2D)

	kinds := []mc.IndexKind{mc.IndexArray, mc.IndexNormalization, mc.IndexSortedSID}
	sizes := []int{0, 2, 5, 10, 15, 20}

	var rows []Fig9Row
	for _, size := range sizes {
		row := Fig9Row{StructureSize: size, MsPerPoint: map[string]float64{}, Points: space.Size()}
		capModel := blackbox.NewCapacity()
		if size == 0 {
			// Degenerate structure: hardware online immediately.
			capModel.MeanDelay = 1e-9
		} else {
			// The visible structure spans roughly 2-3 mean delays.
			capModel.MeanDelay = float64(size) / 2.5
		}
		ev := mc.MustBindBox(opaque(capModel), space, "current_week", "purchase1", "purchase2")
		sweep := func(reuse bool, kind mc.IndexKind) ([]mc.PointResult, mc.SweepStats) {
			eng := mc.MustNew(mc.Options{
				Samples: cfg.Samples, FingerprintLen: cfg.FingerprintLen,
				MasterSeed: cfg.MasterSeed, Reuse: reuse, Index: kind, Workers: cfg.Workers,
			})
			res, st, err := eng.Sweep(ev)
			if err != nil {
				panic(err)
			}
			return res, st
		}
		full, _ := sweep(false, mc.IndexArray)
		for _, kind := range kinds {
			var res []mc.PointResult
			var st mc.SweepStats
			elapsed := timeIt(cfg.Trials, func() { res, st = sweep(true, kind) })
			row.MsPerPoint[kind.String()] =
				elapsed.Seconds() * 1000 / float64(space.Size())
			row.Bases = st.Store.Bases
			if e := answerError(res, full); e.Off >= row.Err.Off {
				row.Err = e
			}
		}
		rows = append(rows, row)
	}

	table := &Table{
		Title:   "Figure 9: computation time vs structure size (Capacity model)",
		Columns: []string{"Structure", "Array ms/pt", "Normalization ms/pt", "SortedSID ms/pt", "Off", "Worst tol", "Worst SE", "Bases"},
		Notes: []string{
			"basis count grows sub-linearly with structure size (offset reuse across purchases)",
			"off = points whose reuse mean misses the reuse-off sweep's by more than core.DefaultTolerance " +
				"(worst strategy); worst tol in tolerance units (perfbench's answer_err), worst SE in standard errors",
		},
	}
	for _, r := range rows {
		cells := []string{
			fmt.Sprint(r.StructureSize),
			fmt.Sprintf("%.4f", r.MsPerPoint["Array"]),
			fmt.Sprintf("%.4f", r.MsPerPoint["Normalization"]),
			fmt.Sprintf("%.4f", r.MsPerPoint["SortedSID"]),
		}
		cells = append(cells, r.Err.cells()...)
		table.Rows = append(table.Rows, append(cells, fmt.Sprint(r.Bases)))
	}
	return rows, table, nil
}
