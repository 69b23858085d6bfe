package pdb

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"jigsaw/internal/pool"
	"jigsaw/internal/stats"
)

// worldsPerBlock is the number of worlds per execution block,
// matching the Monte Carlo engine's sample-block size.
const worldsPerBlock = 256

// rowsPerChunk is the number of scan rows a block runs its plan over
// at a time, when the plan lets it run in chunks (planChunking): a
// block's live lanes are then a chunk's rows × its worlds, whatever
// the table's size.
const rowsPerChunk = 64

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
	// Workers sizes the worker pool world blocks execute on (0 or 1 =
	// sequential, negative values are rejected). Blocks are committed
	// in order, so results are bit-identical for any worker count.
	Workers int

	// blockWorlds is the number of worlds per execution block (0
	// means worldsPerBlock; tests vary it to pin block-size
	// behaviour). Each block summarizes each cell on its own and the
	// blocks merge in order. Across different block sizes, cell
	// moments may differ in final-ulp rounding (the batched reduction
	// is split-dependent, like the engine's): a block that feeds a
	// cell fewer than 16 values summarizes them by Welford's update
	// from empty before the merge, so small blocks, a short trailing
	// block or NULL-heavy cells round differently from larger ones.
	blockWorlds int
	// chunkRows is the number of scan rows per chunk (0 means
	// rowsPerChunk; tests vary it so small tables cross many chunks).
	// Chunks never move an answer.
	chunkRows int
}

// withDefaults validates the options and fills in defaults.
func (o WorldsOptions) withDefaults() (WorldsOptions, error) {
	switch {
	case o.Worlds < 0:
		return o, fmt.Errorf("pdb: Worlds = %d; want > 0, or 0 for the default", o.Worlds)
	case o.Workers < 0:
		return o, fmt.Errorf("pdb: negative Workers %d", o.Workers)
	}
	if o.Worlds == 0 {
		o.Worlds = 1000
	}
	if o.blockWorlds == 0 {
		o.blockWorlds = worldsPerBlock
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
	// from rows (-1 when none), and oddRows its count. The commit
	// rejects such a block.
	odd, oddRows int
	// cells holds one accumulator per result cell, row-major.
	cells []stats.Accumulator
	// keys holds world 0's string cells (block 0 only; nil when there
	// are none).
	keys []Row

	// The rank carry of an incremental fold. folded counts the result
	// rows (ranks) folded so far; ahead[lane] counts world lane's
	// present rows past them, whose cells wait in the window until
	// every world has reached their rank (empty until a row is
	// carried); top is the largest ahead.
	// Rank r sits in window slot r−base, a slot being each column's
	// kind and payload lanes, column-major.
	folded, top, base int
	ahead             []int
	winKind           []uint8
	winF              []float64
}

var (
	blockCtxPool = pool.NewPool[BlockCtx]()
	blockOutPool = pool.NewPool[blockOut]()
)

// reset empties the output for the block starting at world lo.
func (o *blockOut) reset(lo int) {
	*o = blockOut{lo: lo, odd: -1, cells: o.cells[:0], ahead: o.ahead[:0],
		winKind: o.winKind[:0], winF: o.winF[:0]}
}

// run executes plan over the block's chunks of scan rows, folding each
// chunk's result rows before the next chunk runs, and closes the fold.
func (o *blockOut) run(plan Plan, ch chunking, ctx *BlockCtx) error {
	for lo := 0; ; lo += ch.size {
		hi := math.MaxInt
		if ch.size > 0 && ch.rows-lo > ch.size {
			hi = lo + ch.size
		}
		ctx.chunk(lo, hi)
		bt, err := plan.ExecuteBlock(ctx)
		if err != nil {
			return err
		}
		o.fold(bt, ctx)
		if hi == math.MaxInt {
			break
		}
	}
	o.finish()
	return nil
}

// fold summarizes one chunk's result rows into per-cell moments.
// Result row k in world w is that world's k-th present row; each
// cell's non-NULL numeric lanes (bools as 0/1) feed one AddBlock, in
// world order, and string cells are carried as keys, not aggregated.
// A row present in every world while no rank is open folds straight
// from its Vecs. Any other row goes to the rank carry, which copies
// each world's lanes out of the chunk's arena and folds a rank once
// every world has reached it, so each cell still gets one AddBlock
// over its worlds, whatever the chunk boundaries.
func (o *blockOut) fold(bt *BlockTable, ctx *BlockCtx) {
	o.schema = bt.Schema
	xs := ctx.floats(ctx.W)
	for r, row := range bt.Rows {
		if m := bt.rowMask(r); m != nil || o.top > 0 {
			o.carry(row, m, xs)
			continue
		}
		cells := o.nextRank(len(row))
		for c, v := range row {
			if o.lo == 0 {
				o.key(o.folded-1, c, len(row), v)
			}
			n := 0
			for lane := range xs {
				if kind, f := v.laneNum(lane); kind == KindFloat || kind == KindBool {
					xs[n] = f
					n++
				}
			}
			cells[c].Reset()
			cells[c].AddBlock(xs[:n])
		}
	}
	if o.top > 0 && o.folded > o.base {
		// Move the open ranks to the window's front, once per chunk.
		stride := len(bt.Schema) * len(xs)
		from, to := (o.folded-o.base)*stride, (o.folded-o.base+o.top)*stride
		o.winKind = o.winKind[:copy(o.winKind, o.winKind[from:to])]
		o.winF = o.winF[:copy(o.winF, o.winF[from:to])]
		o.base = o.folded
	}
}

// carry puts row's lanes, in the worlds mask keeps (nil = every
// world), into each world's next rank's window slot, then folds every
// rank all worlds have reached.
func (o *blockOut) carry(row BlockRow, mask Mask, xs []float64) {
	w, ncols := len(xs), len(row)
	stride := ncols * w
	if len(o.ahead) == 0 {
		o.ahead = slices.Grow(o.ahead, w)[:w]
		clear(o.ahead)
	}
	if o.top == 0 {
		o.base = o.folded
		o.winKind, o.winF = o.winKind[:0], o.winF[:0]
	}
	for lane := range w {
		if mask != nil && !mask[lane] {
			continue
		}
		rank := o.folded + o.ahead[lane]
		slot := (rank - o.base) * stride
		if n := slot + stride; len(o.winF) < n {
			o.winKind = slices.Grow(o.winKind, n-len(o.winKind))[:n]
			o.winF = slices.Grow(o.winF, n-len(o.winF))[:n]
		}
		for c, v := range row {
			if lane == 0 && o.lo == 0 {
				o.key(rank, c, ncols, v)
			}
			kind, f := v.laneNum(lane)
			o.winKind[slot+c*w+lane], o.winF[slot+c*w+lane] = uint8(kind), f
		}
		o.ahead[lane]++
		o.top = max(o.top, o.ahead[lane])
	}
	reached := slices.Min(o.ahead)
	for range reached {
		slot := (o.folded - o.base) * stride
		cells := o.nextRank(ncols)
		for c := range cells {
			kinds, fs := o.winKind[slot+c*w:][:w], o.winF[slot+c*w:][:w]
			n := 0
			for lane, k := range kinds {
				if Kind(k) == KindFloat || Kind(k) == KindBool {
					xs[n] = fs[lane]
					n++
				}
			}
			cells[c].Reset()
			cells[c].AddBlock(xs[:n])
		}
	}
	for lane := range o.ahead {
		o.ahead[lane] -= reached
	}
	o.top -= reached
}

// nextRank opens the next result row's ncols cells.
func (o *blockOut) nextRank(ncols int) []stats.Accumulator {
	n := len(o.cells)
	o.cells = slices.Grow(o.cells, ncols)[:n+ncols]
	o.folded++
	return o.cells[n:]
}

// finish closes the fold after the block's last chunk: world 0's
// present rows are the block's row count, and the first world whose
// count differs makes the block odd. A rank still open means the
// counts differ: were they all equal, the carry would have folded it.
func (o *blockOut) finish() {
	o.rows = o.folded
	if o.top > 0 {
		o.rows += o.ahead[0]
		o.odd = slices.IndexFunc(o.ahead, func(a int) bool { return a != o.ahead[0] })
		o.oddRows = o.folded + o.ahead[o.odd]
		return
	}
	if o.keys != nil {
		o.keys = append(o.keys, make([]Row, o.rows-len(o.keys))...)
	}
}

// key records world 0's cell (k, c) of an ncols-column result when v
// holds a string there.
func (o *blockOut) key(k, c, ncols int, v *Vec) {
	if kind, _ := v.laneNum(0); kind != KindString {
		return
	}
	for len(o.keys) <= k {
		o.keys = append(o.keys, nil)
	}
	if o.keys[k] == nil {
		o.keys[k] = make(Row, ncols)
	}
	o.keys[k][c] = v.Lane(0)
}

// chunking is how a block runs its plan: over the leaf's rows, size at
// a time, or in one pass when size is 0; and through the fresh lane or
// on live streams.
type chunking struct {
	rows, size int
	fresh      bool
}

// planChunking decides, once per plan and before any block runs, how
// its blocks run it. Per world, draws happen in the order (operator,
// row, expression); when at most one operator draws, chunks of size
// scan rows (0 means rowsPerChunk) keep that order exactly, so they
// move no answer, and a plan where two or more operators draw runs in
// one pass. The plan takes the fresh lane exactly when each world
// draws once: one VG call site over a leaf of at most one row. The
// lane pays only when its draw is the world's only one; a later draw
// would need the world's stream where the lane's draw left it.
func planChunking(plan Plan, size int) chunking {
	s := plan.shape()
	if s.drawers > 1 {
		return chunking{}
	}
	if size == 0 {
		size = rowsPerChunk
	}
	return chunking{rows: s.rows, size: size, fresh: s.rows <= 1 && s.calls == 1}
}

// planShape is what planChunking reads of a plan: its leaf's row
// count, the number of its operators whose expressions draw, and the
// VG call sites those expressions hold.
type planShape struct{ rows, drawers, calls int }

// under returns the shape of an operator over s whose expressions hold
// calls VG call sites.
func (s planShape) under(calls int) planShape {
	if calls > 0 {
		s.drawers++
		s.calls += calls
	}
	return s
}

// runBlock executes the block of master's worlds lo to hi−1.
func runBlock(plan Plan, ch chunking, params map[string]float64, master uint64, lo, hi int) *blockOut {
	out := blockOutPool.Get()
	out.reset(lo)
	bctx := blockCtxPool.Get()
	bctx.reset(master, lo, hi-lo, params, ch.fresh)
	if err := out.run(plan, ch, bctx); err != nil {
		out.err = fmt.Errorf("pdb: worlds %d-%d: %w", lo, hi-1, err)
	}
	blockCtxPool.Put(bctx)
	return out
}

// runBlocks partitions the worlds into blocks, executes them on the
// worker pool, and returns the outputs in block order (the first
// failing block's error wins, deterministically).
func runBlocks(plan Plan, params map[string]float64, opts WorldsOptions) ([]*blockOut, error) {
	bw := opts.blockWorlds
	nblocks := (opts.Worlds + bw - 1) / bw
	outs := make([]*blockOut, nblocks)
	ch := planChunking(plan, opts.chunkRows)
	if err := pool.ForWorker(nblocks, opts.Workers, func(_, b int) {
		lo := b * bw
		outs[b] = runBlock(plan, ch, params, opts.MasterSeed, lo, min(lo+bw, opts.Worlds))
	}); err != nil {
		// A panicking block: the pool stopped early, so some blocks
		// never ran. ForWorker's error names the block.
		putBlockOuts(outs)
		lo := err.(*pool.PanicError).Index * bw
		return nil, fmt.Errorf("pdb: worlds %d-%d: %w", lo, min(lo+bw, opts.Worlds)-1, err)
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
// 256 worlds at a time, and aggregates each numeric cell across
// worlds. Every world must produce the same number of rows; a query
// whose cardinality is world-dependent is not positionally alignable
// and is rejected (wrap it in an aggregate instead). Any Workers
// setting produces a bit-identical Distribution. A model that panics
// comes back as an error naming its block's worlds,
// "pdb: worlds 256-511: panic: ...".
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
// count. Its callers run withDefaults first, so there is at least one
// block.
func commitBlocks(outs []*blockOut, opts WorldsOptions) (*Distribution, error) {
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
