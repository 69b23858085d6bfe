package experiments

import (
	"fmt"
	"time"

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
		for _, kind := range kinds {
			capModel := blackbox.NewCapacity()
			if size == 0 {
				// Degenerate structure: hardware online immediately.
				capModel.MeanDelay = 1e-9
			} else {
				// The visible structure spans roughly 2-3 mean delays.
				capModel.MeanDelay = float64(size) / 2.5
			}
			ev := mc.MustBindBox(capModel, space, "current_week", "purchase1", "purchase2")
			var bases int
			elapsed := timeIt(cfg.Trials, func() {
				eng := mc.MustNew(mc.Options{
					Samples: cfg.Samples, FingerprintLen: cfg.FingerprintLen,
					MasterSeed: cfg.MasterSeed, Reuse: true, Index: kind, Workers: cfg.Workers,
				})
				_, st, err := eng.Sweep(ev)
				if err != nil {
					panic(err)
				}
				bases = st.Store.Bases
			})
			row.MsPerPoint[kind.String()] =
				elapsed.Seconds() * 1000 / float64(space.Size())
			row.Bases = bases
		}
		rows = append(rows, row)
	}

	table := &Table{
		Title:   "Figure 9: computation time vs structure size (Capacity model)",
		Columns: []string{"Structure", "Array ms/pt", "Normalization ms/pt", "SortedSID ms/pt", "Bases"},
		Notes: []string{
			"basis count grows sub-linearly with structure size (offset reuse across purchases)",
		},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(r.StructureSize),
			fmt.Sprintf("%.4f", r.MsPerPoint["Array"]),
			fmt.Sprintf("%.4f", r.MsPerPoint["Normalization"]),
			fmt.Sprintf("%.4f", r.MsPerPoint["SortedSID"]),
			fmt.Sprint(r.Bases),
		})
	}
	_ = time.Duration(0)
	return rows, table, nil
}
