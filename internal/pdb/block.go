package pdb

import (
	"math"
	"slices"
	"sync/atomic"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/rng"
)

// This file holds the execution state of the block executor: the
// per-block context (world generators, parameter bindings, the chunk
// of scan rows in flight, scratch arena).
//
// Determinism contract. A block covers a contiguous world range
// [lo, hi); each world w owns generator state derived from seed σw,
// and every operator consumes world w's stream in per-world
// interpretation order: (operator, row, expression). Worlds are
// independent streams, so evaluating a column world-major, row-major
// or expression-major all interleave *across* worlds differently
// while each world's own stream order is fixed — which is why results
// are bit-identical to a per-world interpreter (the test oracle in
// reference_test.go) for any block size and any worker count. A block
// may run its plan over chunks of scan rows (worlds.go); it does so
// only when at most one operator draws, the one case where chunks keep
// each world's (operator, row, expression) order.

// runFlags carries cross-block, cross-worker execution hints. The
// fresh-stream fast lane (applying a VG column's draws from its call
// site's draw table while world generators are still unseeded) costs
// a per-world replay of the column's Draw when a later draw forces
// materialization; once one block observes that, later blocks skip
// the lane. The flag is purely a performance hint — both lanes are
// bit-identical — so a benign race between workers is acceptable.
type runFlags struct {
	freshOff atomic.Bool
}

// BlockCtx carries per-block evaluation state: the block's world ids
// and generators (with the DrawBox of a fresh-lane draw they have not
// yet taken), the parameter bindings, the chunk of scan rows the plan
// runs over, and the scratch arena every operator allocates from. The
// generators, the fresh-lane state and the aggregates' sums persist
// across a block's chunks; the arena is recycled between them. A
// BlockCtx is single-goroutine state; the worlds layer pools one per
// worker.
type BlockCtx struct {
	// W is the number of worlds in this block.
	W int
	// Master is the run's master seed, and IDs holds the block's world
	// ids lo … hi−1: world w of a run is sample w, so Rands[i] is
	// seeded with rng.SampleSeed(Master, IDs[i]).
	Master uint64
	IDs    []int
	// Rands holds the per-world generators; they are materialized
	// lazily (see materialize) so blocks whose only draws go through
	// the fresh-stream fast lane never seed them at all.
	Rands []rng.Rand
	// Params holds @parameter values.
	Params map[string]float64

	// live reports whether Rands carries the worlds' current stream
	// state; until then generators are logically "freshly seeded but
	// not yet constructed".
	live bool
	// deferred is the DrawBox of a VG column evaluated through the
	// fresh-stream fast lane, or nil: if the block later needs live
	// generators, materialize replays its Draw in every world, into
	// replay (never the floats scratch, which the calling VG column
	// still holds), so stream positions match per-world
	// interpretation.
	deferred blackbox.DrawBox
	replay   []float64
	flags    *runFlags

	// rowLo and rowHi bound the scan rows of the chunk in flight; the
	// block's last chunk runs to math.MaxInt.
	rowLo, rowHi int
	// sums holds each AggregatePlan's per-world sums, in the order the
	// plan runs its aggregates: made on the block's first chunk (sumsLive
	// counts them), handed out again on each later chunk (sumsUsed), and
	// kept outside the recycled arena.
	sums               []BlockRow
	sumsLive, sumsUsed int

	// Scratch arena: free lists reset per chunk, so steady-state
	// blocks allocate nothing. Materialized Vecs (vecs) and uniform
	// ones (uniforms) come from separate lists, so a Vec that once
	// held lanes is never spent on a uniform value: a block's lane
	// storage is the most materialized Vecs any one chunk takes.
	vecs         []*Vec
	vecsUsed     int
	uniforms     []*Vec
	uniformsUsed int
	masks        []Mask
	masksUsed    int
	// rowPtrs is the pointer chunk newRow bumps through; rowChunks
	// holds every pointer chunk allocated so far, handed out again in
	// order.
	rowPtrs    []*Vec
	rowChunks  [][]*Vec
	chunksUsed int
	floatBuf   []float64
	// tables and maskLists hold the operators' block tables and
	// Select's per-row mask lists, handed out again in order. A
	// table's Rows is always its own slice, grown by newTable.
	tables        []*BlockTable
	tablesUsed    int
	maskLists     [][]Mask
	maskListsUsed int
}

// reset prepares the context for the block of master's worlds lo to
// lo+n−1, reusing all scratch capacity. Its one chunk covers every
// scan row until chunk narrows it.
func (c *BlockCtx) reset(master uint64, lo, n int, params map[string]float64, flags *runFlags) {
	c.W = n
	c.Master = master
	c.IDs = slices.Grow(c.IDs[:0], n)[:n]
	for i := range c.IDs {
		c.IDs[i] = lo + i
	}
	c.Params = params
	c.live = false
	c.deferred = nil
	c.flags = flags
	c.sumsLive = 0
	c.chunk(0, math.MaxInt)
	if cap(c.Rands) < c.W {
		c.Rands = make([]rng.Rand, c.W)
	}
	c.Rands = c.Rands[:c.W]
}

// chunk points the plan at scan rows lo to hi−1 and recycles the
// arena: nothing the previous chunk allocated there is read again.
func (c *BlockCtx) chunk(lo, hi int) {
	c.rowLo, c.rowHi = lo, hi
	c.sumsUsed = 0
	c.vecsUsed = 0
	c.uniformsUsed = 0
	c.masksUsed = 0
	c.rowPtrs = nil
	c.chunksUsed = 0
	c.tablesUsed = 0
	c.maskListsUsed = 0
}

// lastChunk reports whether the chunk in flight is the block's last.
func (c *BlockCtx) lastChunk() bool { return c.rowHi == math.MaxInt }

// sumRow returns the next aggregate's row of n per-world sums: on the
// block's first chunk a fresh one, every lane NULL over a zero payload
// that addSum adds to, and on each later chunk the same row again.
func (c *BlockCtx) sumRow(n int) BlockRow {
	i := c.sumsUsed
	c.sumsUsed++
	if i < c.sumsLive {
		return c.sums[i]
	}
	c.sumsLive++
	if i == len(c.sums) {
		c.sums = append(c.sums, nil)
	}
	row := c.sums[i]
	for len(row) < n {
		row = append(row, &Vec{})
	}
	row = row[:n:n]
	for _, v := range row {
		v.shape(c.W)
		clear(v.kind)
		clear(v.f)
	}
	c.sums[i] = row
	return row
}

// materialize seeds the per-world generators and replays any deferred
// fresh-lane draw by its DrawBox's Draw, which leaves each generator
// where Eval would, bringing Rands to the exact state a per-world
// interpreter would hold at this point of each world's execution.
func (c *BlockCtx) materialize() {
	if c.live {
		return
	}
	for w := 0; w < c.W; w++ {
		c.Rands[w].Seed(rng.SampleSeed(c.Master, c.IDs[w]))
	}
	if c.deferred != nil {
		n := c.deferred.Draws()
		c.replay = slices.Grow(c.replay[:0], n)[:n]
		for w := 0; w < c.W; w++ {
			c.deferred.Draw(&c.Rands[w], c.replay)
		}
		c.deferred = nil
		// The fast lane cost a full replay: this plan has more than
		// one draw per world, so later blocks go straight to streams.
		if c.flags != nil {
			c.flags.freshOff.Store(true)
		}
	}
	c.live = true
}

// freshLaneOpen reports whether a VG column may still use the
// fresh-stream fast lane: no world stream consumed yet, no draw
// already deferred, and no earlier block demoted the lane.
func (c *BlockCtx) freshLaneOpen() bool {
	return !c.live && c.deferred == nil && (c.flags == nil || !c.flags.freshOff.Load())
}

// ---------- Arena ----------

// newVec returns the next unshaped Vec of an arena list, of which
// *used are taken.
func newVec(list *[]*Vec, used *int) *Vec {
	if *used < len(*list) {
		v := (*list)[*used]
		*used++
		return v
	}
	v := &Vec{}
	*list = append(*list, v)
	*used++
	return v
}

// uniformVec returns a uniform Vec holding val.
func (c *BlockCtx) uniformVec(val Value) *Vec {
	v := newVec(&c.uniforms, &c.uniformsUsed)
	v.uniform = true
	v.u = val
	return v
}

// lanesVec returns a materialized Vec with every lane NULL.
func (c *BlockCtx) lanesVec() *Vec {
	v := c.shapedVec()
	clear(v.kind)
	return v
}

// floatVec returns a materialized Vec whose lanes are floats in the
// worlds active in mask (nil = every world) and NULL in the rest, for
// a kernel that then writes every active lane's payload. It sets each
// kind once, where lanesVec then setFloat would write it twice.
func (c *BlockCtx) floatVec(mask Mask) *Vec {
	v := c.shapedVec()
	if mask == nil && len(v.kind) > 0 {
		// Doubling copies (memmove) beat a byte loop; a VG column over
		// a table takes this path once per row.
		v.kind[0] = uint8(KindFloat)
		for n := 1; n < len(v.kind); n *= 2 {
			copy(v.kind[n:], v.kind[:n])
		}
		return v
	}
	for w := range v.kind {
		if mask == nil || mask[w] {
			v.kind[w] = uint8(KindFloat)
		} else {
			v.kind[w] = uint8(KindNull)
		}
	}
	return v
}

// shapedVec returns a materialized Vec of W lanes whose kinds and
// payloads are left as the arena last held them.
func (c *BlockCtx) shapedVec() *Vec {
	v := newVec(&c.vecs, &c.vecsUsed)
	v.shape(c.W)
	return v
}

// newMask returns a mask copied from src, or all-active when src is
// nil.
func (c *BlockCtx) newMask(src Mask) Mask {
	var m Mask
	if c.masksUsed < len(c.masks) {
		m = c.masks[c.masksUsed]
		c.masksUsed++
	} else {
		m = make(Mask, 0, c.W)
		c.masks = append(c.masks, m)
		c.masksUsed++
	}
	if cap(m) < c.W {
		m = make(Mask, c.W)
		c.masks[c.masksUsed-1] = m
	}
	m = m[:c.W]
	c.masks[c.masksUsed-1] = m
	if src == nil {
		for i := range m {
			m[i] = true
		}
	} else {
		copy(m, src)
	}
	return m
}

// newRow returns a BlockRow with n column slots from the arena's
// pointer chunk.
func (c *BlockCtx) newRow(n int) BlockRow {
	start := len(c.rowPtrs)
	if start+n > cap(c.rowPtrs) {
		// Next pointer chunk: older rows keep referencing theirs, so
		// moving on never invalidates them.
		c.rowPtrs = c.rowChunk(n)
		start = 0
	}
	c.rowPtrs = c.rowPtrs[:start+n]
	return c.rowPtrs[start : start+n : start+n]
}

// rowChunk returns the next empty pointer chunk with room for n slots,
// allocating one only when the pointer chunks of earlier row chunks
// and blocks run out.
func (c *BlockCtx) rowChunk(n int) []*Vec {
	for c.chunksUsed < len(c.rowChunks) {
		ch := c.rowChunks[c.chunksUsed]
		c.chunksUsed++
		if cap(ch) >= n {
			return ch[:0]
		}
	}
	ch := make([]*Vec, 0, max(1024, n))
	c.rowChunks = append(c.rowChunks, ch)
	c.chunksUsed++
	return ch
}

// newTable returns a block table over schema s with n rows for the
// caller to fill (or capacity for n, resliced to fewer) and no
// selection, reusing the row slice an earlier block grew.
func (c *BlockCtx) newTable(s Schema, n int) *BlockTable {
	if c.tablesUsed == len(c.tables) {
		c.tables = append(c.tables, &BlockTable{})
	}
	t := c.tables[c.tablesUsed]
	c.tablesUsed++
	*t = BlockTable{Schema: s, Rows: slices.Grow(t.Rows[:0], n)[:n]}
	return t
}

// maskList returns an empty mask list with capacity for n rows.
func (c *BlockCtx) maskList(n int) []Mask {
	if c.maskListsUsed == len(c.maskLists) {
		c.maskLists = append(c.maskLists, nil)
	}
	l := slices.Grow(c.maskLists[c.maskListsUsed][:0], n)
	c.maskLists[c.maskListsUsed] = l
	c.maskListsUsed++
	return l
}

// floats returns an n-sized float scratch slice.
func (c *BlockCtx) floats(n int) []float64 {
	if cap(c.floatBuf) < n {
		c.floatBuf = make([]float64, n)
	}
	return c.floatBuf[:n]
}
