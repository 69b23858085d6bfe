package pdb

import (
	"errors"
	"fmt"
	"slices"

	"jigsaw/internal/pool"
	"jigsaw/internal/stats"
)

// DefaultBlockWorlds is the default number of worlds per execution
// block, matching the Monte Carlo engine's sample-block size.
const DefaultBlockWorlds = 256

// WorldsOptions configures Monte Carlo query execution.
type WorldsOptions struct {
	// Worlds is the number of sampled possible worlds (default 1000,
	// the paper's §6 setup).
	Worlds int
	// MasterSeed names the per-world seeds: world k draws from
	// rng.SampleSeed(MasterSeed, k), as sample k of an mc engine with
	// the same MasterSeed does, so PDB answers are comparable with
	// engine fingerprints and samples.
	MasterSeed uint64
	// BlockWorlds is the number of worlds per execution block (0
	// means DefaultBlockWorlds, negative values are rejected). Each
	// block summarizes each cell on its own and the blocks merge in
	// order, so results are bit-identical across Workers for a fixed
	// BlockWorlds; across *different* block sizes, cell moments may
	// differ in final-ulp rounding (the batched reduction is
	// split-dependent, like the engine's). A block that feeds a cell
	// fewer than 16 values summarizes them by Welford's update from
	// empty before the merge, so small blocks, a short trailing block
	// or NULL-heavy cells round differently from larger ones.
	BlockWorlds int
	// Workers sizes the worker pool world blocks execute on (0 or 1 =
	// sequential, negative values are rejected). Blocks are committed
	// in order, so results are bit-identical for any worker count.
	Workers int
}

// withDefaults validates the options and fills in defaults.
func (o WorldsOptions) withDefaults() (WorldsOptions, error) {
	switch {
	case o.Worlds < 0:
		return o, fmt.Errorf("pdb: Worlds = %d; want > 0, or 0 for the default", o.Worlds)
	case o.BlockWorlds < 0:
		return o, fmt.Errorf("pdb: negative BlockWorlds %d", o.BlockWorlds)
	case o.Workers < 0:
		return o, fmt.Errorf("pdb: negative Workers %d", o.Workers)
	}
	if o.Worlds == 0 {
		o.Worlds = 1000
	}
	if o.BlockWorlds == 0 {
		o.BlockWorlds = DefaultBlockWorlds
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	return o, nil
}

// Distribution is a PDB query answer: a distribution over result
// tables, summarized cell-wise across worlds. §2.1 lets the answer be
// "represented as an expectation, maximum likelihood, histogram,
// etc."; a cell holds what Jigsaw's statements read, the expectation
// and standard deviation, with the observed range. Rows are aligned
// positionally across worlds: no operator reorders rows, so row k is
// each world's k-th surviving row (the tuple-bundle discipline).
type Distribution struct {
	// Schema is the result schema.
	Schema Schema
	// Worlds is the number of sampled worlds aggregated.
	Worlds int
	// Cells holds per-(row, column) summaries.
	Cells [][]stats.Summary
	// KeyRows carries the deterministic string cells of each result
	// row (world 0's values; such cells are carried as keys, not
	// aggregated). Nil when the result has no string cells.
	KeyRows []Row
}

// NumRows returns the aligned row count.
func (d *Distribution) NumRows() int { return len(d.Cells) }

// Cell returns the summary at (row, col).
func (d *Distribution) Cell(row, col int) (stats.Summary, error) {
	if row < 0 || row >= len(d.Cells) {
		return stats.Summary{}, fmt.Errorf("pdb: row %d out of range [0,%d)", row, len(d.Cells))
	}
	if col < 0 || col >= len(d.Schema) {
		return stats.Summary{}, fmt.Errorf("pdb: col %d out of range [0,%d)", col, len(d.Schema))
	}
	return d.Cells[row][col], nil
}

// CellByName returns the summary at (row, named column).
func (d *Distribution) CellByName(row int, col string) (stats.Summary, error) {
	i, err := d.Schema.IndexOf(col)
	if err != nil {
		return stats.Summary{}, err
	}
	return d.Cell(row, i)
}

// blockOut is one block's folded result, all the ordered commit
// needs: each cell's moments over the block's worlds, world 0's string
// cells and the block's row count. The test oracle folds its
// per-world tables into the same shape, so its Distributions go
// through the same ordered merge.
type blockOut struct {
	err    error
	lo     int // first world id
	schema Schema
	rows   int // rows in the block's first world
	// odd is the first world, counted from lo, whose row count differs
	// from rows (-1 when none), and oddRows its count. Such a block is
	// not folded: the commit rejects it.
	odd, oddRows int
	// cells holds one accumulator per result cell, row-major.
	cells []stats.Accumulator
	// keys holds world 0's string cells (block 0 only; nil when there
	// are none).
	keys []Row
}

var (
	blockCtxPool = pool.NewPool[BlockCtx]()
	blockOutPool = pool.NewPool[blockOut]()
)

// reset empties the output for the block starting at world lo.
func (o *blockOut) reset(lo int) {
	*o = blockOut{lo: lo, odd: -1, cells: o.cells[:0]}
}

// fold summarizes a block's final table into per-cell moments. Result
// row k in world w is that world's k-th present row; each cell's
// non-NULL numeric lanes (bools as 0/1) feed one AddBlock, in world
// order, and string cells are carried as keys, not aggregated.
func (o *blockOut) fold(bt *BlockTable, ctx *BlockCtx) {
	w, ncols := ctx.W, len(bt.Schema)
	o.schema = bt.Schema
	o.rows = len(bt.Rows)
	// pos[lane] is world lane's present row for the current result
	// row; nil when every row exists in every world.
	var pos []int
	if bt.masked() {
		pos = ctx.ints(w)
		clear(pos)
		for _, m := range bt.Sel {
			for lane := range pos {
				if m == nil || m[lane] {
					pos[lane]++
				}
			}
		}
		o.rows = pos[0]
		for lane, n := range pos {
			if n != o.rows {
				o.odd, o.oddRows = lane, n
				return
			}
		}
		for lane := range pos {
			pos[lane] = -1
		}
	}
	o.cells = slices.Grow(o.cells, o.rows*ncols)[:o.rows*ncols]
	xs := ctx.floats(w)
	for k := 0; k < o.rows; k++ {
		for lane := range pos {
			r := pos[lane] + 1
			for bt.Sel[r] != nil && !bt.Sel[r][lane] {
				r++
			}
			pos[lane] = r
		}
		for c := 0; c < ncols; c++ {
			n := 0
			for lane := 0; lane < w; lane++ {
				r := k
				if pos != nil {
					r = pos[lane]
				}
				switch kind, f := bt.Rows[r][c].laneNum(lane); kind {
				case KindFloat, KindBool:
					xs[n] = f
					n++
				case KindString:
					if o.lo == 0 && lane == 0 {
						o.key(k, c, ncols, bt.Rows[r][c].Lane(0))
					}
				}
			}
			acc := &o.cells[k*ncols+c]
			acc.Reset()
			acc.AddBlock(xs[:n])
		}
	}
}

// key records world 0's string cell (k, c).
func (o *blockOut) key(k, c, ncols int, v Value) {
	if o.keys == nil {
		o.keys = make([]Row, o.rows)
	}
	if o.keys[k] == nil {
		o.keys[k] = make(Row, ncols)
	}
	o.keys[k][c] = v
}

// runBlock executes the block of master's worlds lo to hi−1.
func runBlock(plan Plan, params map[string]float64, master uint64, lo, hi int, flags *runFlags) *blockOut {
	out := blockOutPool.Get()
	out.reset(lo)
	bctx := blockCtxPool.Get()
	bctx.reset(master, lo, hi-lo, params, flags)
	bt, err := plan.ExecuteBlock(bctx)
	if err != nil {
		out.err = fmt.Errorf("pdb: worlds %d-%d: %w", lo, hi-1, err)
	} else {
		out.fold(bt, bctx)
	}
	blockCtxPool.Put(bctx)
	return out
}

// runBlocks partitions the worlds into blocks, executes them on the
// worker pool, and returns the outputs in block order (the first
// failing block's error wins, deterministically).
func runBlocks(plan Plan, params map[string]float64, opts WorldsOptions) ([]*blockOut, error) {
	bw := opts.BlockWorlds
	nblocks := 0
	if opts.Worlds > 0 {
		nblocks = (opts.Worlds + bw - 1) / bw
	}
	outs := make([]*blockOut, nblocks)
	flags := &runFlags{}
	if err := pool.ForWorker(nblocks, opts.Workers, func(_, b int) {
		lo := b * bw
		outs[b] = runBlock(plan, params, opts.MasterSeed, lo, min(lo+bw, opts.Worlds), flags)
	}); err != nil {
		// A panicking block: the pool stopped early, so some blocks
		// never ran.
		putBlockOuts(outs)
		return nil, fmt.Errorf("pdb: %w", err)
	}
	for _, out := range outs {
		if out.err != nil {
			err := out.err
			putBlockOuts(outs)
			return nil, err
		}
	}
	return outs, nil
}

// putBlockOuts recycles block outputs.
func putBlockOuts(outs []*blockOut) {
	for _, out := range outs {
		if out != nil {
			blockOutPool.Put(out)
		}
	}
}

// RunDistribution executes the plan across sampled worlds, a block of
// worlds at a time, and aggregates each numeric cell across worlds.
// Every world must produce the same number of rows; a query whose
// cardinality is world-dependent is not positionally alignable and is
// rejected (wrap it in an aggregate instead). Any Workers setting
// produces a bit-identical Distribution for a fixed BlockWorlds.
func RunDistribution(plan Plan, params map[string]float64, opts WorldsOptions) (*Distribution, error) {
	if plan == nil {
		return nil, errors.New("pdb: nil plan")
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	outs, err := runBlocks(plan, params, opts)
	if err != nil {
		return nil, err
	}
	defer putBlockOuts(outs)
	return commitBlocks(outs, opts)
}

// commitBlocks merges the blocks' cell moments, in world order, into
// the Distribution, after checking that every world produced world
// 0's row count. The cells' accumulators and summaries are two flat
// arrays, row-major, so a run allocates the same whatever its row
// count.
func commitBlocks(outs []*blockOut, opts WorldsOptions) (*Distribution, error) {
	if len(outs) == 0 {
		return nil, errors.New("pdb: zero worlds requested")
	}
	first := outs[0]
	nrows, ncols := first.rows, len(first.schema)
	for _, out := range outs {
		lane, n := out.odd, out.oddRows
		if out.rows != nrows {
			lane, n = 0, out.rows
		}
		if lane >= 0 {
			return nil, fmt.Errorf("pdb: world %d produced %d rows, world 0 produced %d; "+
				"result cardinality must be world-invariant", out.lo+lane, n, nrows)
		}
	}
	accs := slices.Clone(first.cells)
	for _, out := range outs[1:] {
		for i := range accs {
			accs[i].Merge(&out.cells[i])
		}
	}
	cells := make([]stats.Summary, len(accs))
	for i := range accs {
		cells[i] = accs[i].Summarize()
	}
	dist := &Distribution{Schema: first.schema, Worlds: opts.Worlds, KeyRows: first.keys,
		Cells: make([][]stats.Summary, nrows)}
	for k := range dist.Cells {
		dist.Cells[k] = cells[k*ncols : (k+1)*ncols : (k+1)*ncols]
	}
	return dist, nil
}
