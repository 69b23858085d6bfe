package pdb

import (
	"errors"
	"fmt"

	"jigsaw/internal/pool"
	"jigsaw/internal/rng"
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
	// means DefaultBlockWorlds, negative values are rejected). Results are bit-identical across
	// Workers for a fixed BlockWorlds; across *different* block sizes,
	// cell moments may differ in final-ulp rounding (the batched
	// reduction is split-dependent, like the engine's).
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

// blockOut is one block's flattened result: per-world row counts and
// the lane matrix of the block's final table, the only state the
// ordered commit needs. The test oracle produces it from per-world
// tables, so its Distributions go through the same accumulation.
type blockOut struct {
	err    error
	lo     int // first world id
	w      int // worlds in block
	nrows  int // block-table rows (≥ per-world counts under masks)
	ncols  int
	schema Schema
	counts []int // active rows per world
	// Lane matrix, indexed (r*ncols+c)*w + lane.
	kinds []uint8
	vals  []float64
	strs  []string // non-nil only when a string lane exists
	// sel is nil when every row exists in every world, else r*w+lane.
	sel []bool
}

var (
	blockCtxPool = pool.NewPool[BlockCtx]()
	blockOutPool = pool.NewPool[blockOut]()
)

// reset shapes the output for a block of w worlds starting at lo.
func (o *blockOut) reset(lo, w int) {
	o.err = nil
	o.lo = lo
	o.w = w
	o.nrows, o.ncols = 0, 0
	o.schema = nil
	o.counts = o.counts[:0]
	o.kinds = o.kinds[:0]
	o.vals = o.vals[:0]
	o.strs = nil
	o.sel = nil
}

// shape sizes the lane matrix for nrows×ncols cells.
func (o *blockOut) shape(schema Schema, nrows int) {
	o.schema = schema
	o.nrows, o.ncols = nrows, len(schema)
	n := nrows * o.ncols * o.w
	if cap(o.kinds) < n {
		o.kinds = make([]uint8, n)
		o.vals = make([]float64, n)
	} else {
		o.kinds = o.kinds[:n]
		o.vals = o.vals[:n]
		for i := range o.kinds {
			o.kinds[i] = 0
		}
	}
	if cap(o.counts) < o.w {
		o.counts = make([]int, o.w)
	} else {
		o.counts = o.counts[:o.w]
	}
	for i := range o.counts {
		o.counts[i] = nrows
	}
}

// setStr records a string lane.
func (o *blockOut) setStr(idx int, s string) {
	if o.strs == nil {
		o.strs = make([]string, len(o.kinds))
	}
	o.strs[idx] = s
}

// flattenBlockTable lowers a block's final BlockTable into the commit
// representation.
func (o *blockOut) flattenBlockTable(bt *BlockTable) {
	o.shape(bt.Schema, len(bt.Rows))
	w := o.w
	for r, row := range bt.Rows {
		for c, v := range row {
			base := (r*o.ncols + c) * w
			if v.uniform {
				k := uint8(v.u.Kind())
				switch Kind(k) {
				case KindFloat:
					for lane := 0; lane < w; lane++ {
						o.kinds[base+lane] = k
						o.vals[base+lane] = v.u.f
					}
				case KindBool:
					f := 0.0
					if v.u.b {
						f = 1
					}
					for lane := 0; lane < w; lane++ {
						o.kinds[base+lane] = k
						o.vals[base+lane] = f
					}
				case KindString:
					for lane := 0; lane < w; lane++ {
						o.kinds[base+lane] = k
						o.setStr(base+lane, v.u.s)
					}
				}
				continue
			}
			copy(o.kinds[base:base+w], v.kind)
			copy(o.vals[base:base+w], v.f)
			if v.s != nil {
				for lane := 0; lane < w; lane++ {
					if Kind(v.kind[lane]) == KindString {
						o.setStr(base+lane, v.s[lane])
					}
				}
			}
		}
	}
	if bt.masked() {
		if cap(o.sel) < len(bt.Rows)*w {
			o.sel = make([]bool, len(bt.Rows)*w)
		} else {
			o.sel = o.sel[:len(bt.Rows)*w]
		}
		for lane := 0; lane < w; lane++ {
			o.counts[lane] = 0
		}
		for r := range bt.Rows {
			m := bt.rowMask(r)
			for lane := 0; lane < w; lane++ {
				on := m == nil || m[lane]
				o.sel[r*w+lane] = on
				if on {
					o.counts[lane]++
				}
			}
		}
	}
}

// runBlock executes one world block.
func runBlock(plan Plan, params map[string]float64, seeds []uint64, lo int, flags *runFlags) *blockOut {
	out := blockOutPool.Get()
	out.reset(lo, len(seeds))
	bctx := blockCtxPool.Get()
	bctx.reset(seeds, params, flags)
	bt, err := plan.ExecuteBlock(bctx)
	if err != nil {
		out.err = fmt.Errorf("pdb: worlds %d-%d: %w", lo, lo+len(seeds)-1, err)
	} else {
		out.flattenBlockTable(bt)
	}
	blockCtxPool.Put(bctx)
	return out
}

// runBlocks partitions the worlds into blocks, executes them on the
// worker pool, and returns the outputs in block order (the first
// failing block's error wins, deterministically).
func runBlocks(plan Plan, params map[string]float64, opts WorldsOptions) ([]*blockOut, error) {
	seeds := worldSeeds(opts.MasterSeed, opts.Worlds)
	bw := opts.BlockWorlds
	nblocks := 0
	if opts.Worlds > 0 {
		nblocks = (opts.Worlds + bw - 1) / bw
	}
	outs := make([]*blockOut, nblocks)
	flags := &runFlags{}
	if err := pool.ForWorker(nblocks, opts.Workers, func(_, b int) {
		lo := b * bw
		hi := lo + bw
		if hi > opts.Worlds {
			hi = opts.Worlds
		}
		outs[b] = runBlock(plan, params, seeds[lo:hi], lo, flags)
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

// commitBlocks accumulates block outputs, in world order, into the
// Distribution: per-world positional compaction of masked rows, the
// cardinality check, string cells carried as KeyRows, and one batched
// AddBlock per cell per block. The cells' accumulators and summaries
// are two flat arrays, row-major, so a run allocates the same whatever
// its row count.
func commitBlocks(outs []*blockOut, opts WorldsOptions) (*Distribution, error) {
	var dist *Distribution
	var accs []stats.Accumulator
	nrows, ncols := 0, 0
	var scratch []float64
	var keyRows []Row
	var rowMap []int

	for _, out := range outs {
		if dist == nil {
			nrows, ncols = out.counts[0], out.ncols
			dist = &Distribution{Schema: out.schema, Worlds: opts.Worlds}
			accs = make([]stats.Accumulator, nrows*ncols)
			for i := range accs {
				accs[i].Reset()
			}
			scratch = make([]float64, 0, out.w)
		}
		for lane := 0; lane < out.w; lane++ {
			if out.counts[lane] != nrows {
				return nil, fmt.Errorf("pdb: world %d produced %d rows, world 0 produced %d; "+
					"result cardinality must be world-invariant", out.lo+lane, out.counts[lane], nrows)
			}
		}
		if out.sel != nil {
			// Per-world positional compaction: result position k in
			// world w is that world's k-th present row.
			if cap(rowMap) < nrows*out.w {
				rowMap = make([]int, nrows*out.w)
			}
			rowMap = rowMap[:nrows*out.w]
			for lane := 0; lane < out.w; lane++ {
				k := 0
				for r := 0; r < out.nrows; r++ {
					if out.sel[r*out.w+lane] {
						rowMap[k*out.w+lane] = r
						k++
					}
				}
			}
		}
		for k := 0; k < nrows; k++ {
			for c := 0; c < out.ncols; c++ {
				scratch = scratch[:0]
				for lane := 0; lane < out.w; lane++ {
					r := k
					if out.sel != nil {
						r = rowMap[k*out.w+lane]
					}
					idx := (r*out.ncols+c)*out.w + lane
					switch Kind(out.kinds[idx]) {
					case KindFloat, KindBool:
						scratch = append(scratch, out.vals[idx])
					case KindString:
						// Carried as a key, not aggregated.
						if out.lo == 0 && lane == 0 {
							if keyRows == nil {
								keyRows = make([]Row, nrows)
							}
							if keyRows[k] == nil {
								keyRows[k] = make(Row, out.ncols)
							}
							keyRows[k][c] = Str(out.strs[idx])
						}
					}
				}
				accs[k*ncols+c].AddBlock(scratch)
			}
		}
	}

	if dist == nil {
		return nil, errors.New("pdb: zero worlds requested")
	}
	dist.KeyRows = keyRows
	cells := make([]stats.Summary, len(accs))
	for i := range accs {
		cells[i] = accs[i].Summarize()
	}
	dist.Cells = make([][]stats.Summary, nrows)
	for k := range dist.Cells {
		dist.Cells[k] = cells[k*ncols : (k+1)*ncols : (k+1)*ncols]
	}
	return dist, nil
}

// worldSeeds returns one seed per world: world k draws from
// rng.SampleSeed(master, k), the seed the mc engine gives sample k, so
// world k of a PDB run and sample k of an engine run observe identical
// randomness.
func worldSeeds(master uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	rng.FillSeeds(master, 0, seeds)
	return seeds
}
