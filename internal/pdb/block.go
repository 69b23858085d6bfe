package pdb

import (
	"slices"
	"sync/atomic"

	"jigsaw/internal/blackbox"
	"jigsaw/internal/rng"
)

// This file holds the execution state of the block executor: the
// per-block context (world generators, parameter bindings, scratch
// arena).
//
// Determinism contract. A block covers a contiguous world range
// [lo, hi); each world w owns generator state derived from seed σw,
// and every operator consumes world w's stream in per-world
// interpretation order: (operator, row, expression). Worlds are
// independent streams, so evaluating a column world-major, row-major
// or expression-major all interleave *across* worlds differently
// while each world's own stream order is fixed — which is why results
// are bit-identical to a per-world interpreter (the test oracle in
// reference_test.go) for any block size and any worker count.

// runFlags carries cross-block, cross-worker execution hints. The
// fresh-stream fast lane (applying a VG column's draws from its call
// site's draw table while world generators are still unseeded) costs
// a per-world replay when a later draw forces materialization; once
// one block observes that, later blocks skip the lane. The flag is
// purely a performance hint — both lanes are bit-identical — so a
// benign race between workers is acceptable.
type runFlags struct {
	freshOff atomic.Bool
}

// deferredDraw records a VG column evaluated through the fresh-stream
// fast lane: if the block later needs live per-world generators, the
// draw is replayed against them so stream positions match per-world
// interpretation. A nil box means no draw is deferred; args is the
// context's own buffer, reused across blocks.
type deferredDraw struct {
	box  blackbox.Box
	args []float64
}

// BlockCtx carries per-block evaluation state: the block's world ids,
// seeds and generators, the parameter bindings, and the scratch arena
// every operator allocates from. A BlockCtx is single-goroutine state;
// the worlds layer pools one per worker.
type BlockCtx struct {
	// W is the number of worlds in this block.
	W int
	// Master is the run's master seed, and IDs holds the block's world
	// ids lo … hi−1: world w of a run is sample w, so Seeds[i] is
	// rng.SampleSeed(Master, IDs[i]).
	Master uint64
	IDs    []int
	Seeds  []uint64
	// Rands holds the per-world generators; they are materialized
	// lazily (see materialize) so blocks whose only draws go through
	// the fresh-stream fast lane never seed them at all.
	Rands []rng.Rand
	// Params holds @parameter values.
	Params map[string]float64

	// live reports whether Rands carries the worlds' current stream
	// state; until then generators are logically "freshly seeded but
	// not yet constructed".
	live     bool
	deferred deferredDraw
	flags    *runFlags

	// Scratch arena: free lists reset per block, so steady-state
	// blocks allocate nothing.
	vecs      []*Vec
	vecsUsed  int
	masks     []Mask
	masksUsed int
	// rowPtrs is the chunk newRow bumps through; rowChunks holds
	// every chunk allocated so far, handed out again in order.
	rowPtrs    []*Vec
	rowChunks  [][]*Vec
	chunksUsed int
	floatBuf   []float64
	intBuf     []int
	// tables and maskLists hold the operators' block tables and
	// Select's per-row mask lists, handed out again in order. A
	// table's Rows is always its own slice, grown by newTable.
	tables        []*BlockTable
	tablesUsed    int
	maskLists     [][]Mask
	maskListsUsed int
}

// reset prepares the context for the block of master's worlds lo to
// lo+n−1, reusing all scratch capacity.
func (c *BlockCtx) reset(master uint64, lo, n int, params map[string]float64, flags *runFlags) {
	c.W = n
	c.Master = master
	c.IDs = slices.Grow(c.IDs[:0], n)[:n]
	for i := range c.IDs {
		c.IDs[i] = lo + i
	}
	c.Seeds = slices.Grow(c.Seeds[:0], n)[:n]
	rng.FillSeeds(master, lo, c.Seeds)
	c.Params = params
	c.live = false
	c.deferred.box = nil
	c.flags = flags
	c.vecsUsed = 0
	c.masksUsed = 0
	c.rowPtrs = nil
	c.chunksUsed = 0
	c.tablesUsed = 0
	c.maskListsUsed = 0
	if cap(c.Rands) < c.W {
		c.Rands = make([]rng.Rand, c.W)
	}
	c.Rands = c.Rands[:c.W]
}

// materialize seeds the per-world generators and replays any deferred
// fresh-lane draw, bringing Rands to the exact state a per-world
// interpreter would hold at this point of each world's execution.
func (c *BlockCtx) materialize() {
	if c.live {
		return
	}
	for w := 0; w < c.W; w++ {
		c.Rands[w].Seed(c.Seeds[w])
	}
	if d := &c.deferred; d.box != nil {
		for w := 0; w < c.W; w++ {
			d.box.Eval(d.args, &c.Rands[w])
		}
		d.box = nil
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
	return !c.live && c.deferred.box == nil && (c.flags == nil || !c.flags.freshOff.Load())
}

// noteFreshDraw records that box's draws at args were applied from
// its draw table against the fresh world seeds, deferring the
// stream-state update until someone needs live generators.
func (c *BlockCtx) noteFreshDraw(box blackbox.Box, args []float64) {
	c.deferred.box = box
	c.deferred.args = append(c.deferred.args[:0], args...)
}

// ---------- Arena ----------

// newVec returns an unshaped Vec from the arena.
func (c *BlockCtx) newVec() *Vec {
	if c.vecsUsed < len(c.vecs) {
		v := c.vecs[c.vecsUsed]
		c.vecsUsed++
		return v
	}
	v := &Vec{}
	c.vecs = append(c.vecs, v)
	c.vecsUsed++
	return v
}

// uniformVec returns a uniform Vec holding val.
func (c *BlockCtx) uniformVec(val Value) *Vec {
	v := c.newVec()
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
	v := c.newVec()
	v.uniform = false
	v.u = Value{}
	if cap(v.kind) < c.W {
		v.kind = make([]uint8, c.W)
		v.f = make([]float64, c.W)
	} else {
		v.kind = v.kind[:c.W]
		v.f = v.f[:c.W]
	}
	v.s = nil
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
		// Next chunk: older rows keep referencing theirs, so moving on
		// never invalidates them.
		c.rowPtrs = c.rowChunk(n)
		start = 0
	}
	c.rowPtrs = c.rowPtrs[:start+n]
	return c.rowPtrs[start : start+n : start+n]
}

// rowChunk returns the block's next empty pointer chunk with room for
// n slots, allocating one only when the chunks of earlier blocks run
// out.
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

// ints returns an n-sized int scratch slice.
func (c *BlockCtx) ints(n int) []int {
	if cap(c.intBuf) < n {
		c.intBuf = make([]int, n)
	}
	return c.intBuf[:n]
}
