package blackbox

import (
	"sync"
	"sync/atomic"

	"jigsaw/internal/rng"
)

// DrawTable holds draw vectors by sample id: under common random
// numbers (§3.1) sample (master, id) takes the same draws at every
// point, so a caller draws each sample's vector once and applies it at
// every later point (DrawBox.Apply). Its callers are a compiled
// scenario's seed-only row, whose vector is every call site's draws
// (DESIGN.md, "Seed-only rows"), mc's BoundBox of a DrawBox and the
// PDB's fresh lane, whose vector is one DrawBox's.
//
// The table holds one master's samples 0 to n−1 densely; a block under
// another master replaces it. Every caller that exists draws under one
// master per call, so a replacement costs only interleaved callers
// their reuse, never a wrong value.
//
// Readers take no lock: they index an immutable snapshot loaded
// through an atomic pointer. A block whose last id the snapshot lacks
// fills the missing ids up to it, under mu, into a new snapshot and
// publishes it, so a sweep publishes about once per block of new ids
// and never in steady state. A table holds at most maxTableBytes of
// draws; an id past that bound is the caller's to draw.
type DrawTable struct {
	// width is the draw vector's length, and max the id bound.
	width, max int
	draw       func(r *rng.Rand, d []float64)
	mu         sync.Mutex
	r          rng.Rand // fill's generator, under mu
	snap       atomic.Pointer[drawSnap]
}

// drawSnap is one published state of a DrawTable: sample id's draws
// under master at vals[id*width : (id+1)*width]. Entries are only
// appended: a later snapshot of the same master may share vals'
// backing array and write past this one's length, which no reader of
// this one reads, so what a snapshot shows never changes.
type drawSnap struct {
	master uint64
	vals   []float64
}

const (
	// maxTableBytes bounds a table's draws.
	maxTableBytes = 4 << 20
	// minTableEntries is the capacity a table first allocates, enough
	// for every sample of a 1000-sample sweep.
	minTableEntries = 1024
)

// NewDrawTable returns an empty table of width-long draw vectors
// (width >= 1), each filled by draw from a generator seeded with its
// sample's seed. draw must be a pure function of the generator.
func NewDrawTable(width int, draw func(r *rng.Rand, d []float64)) *DrawTable {
	t := &DrawTable{width: width, max: maxTableBytes / (8 * width), draw: draw}
	t.snap.Store(&drawSnap{})
	return t
}

// Width is the length of a draw vector.
func (t *DrawTable) Width() int { return t.width }

// Bound is the number of sample ids the table holds at most: it holds
// ids 0 to Bound()−1.
func (t *DrawTable) Bound() int { return t.max }

// Load returns the draws of master's samples 0 to n−1, n covering the
// block ids below the bound, filling the table first when its snapshot
// falls short: sample id's vector is vals[id*Width():][:Width()]. The
// ids must ascend, so the last is the largest; all reports that it,
// and so every id, is below the bound.
func (t *DrawTable) Load(master uint64, ids []int) (vals []float64, all bool) {
	top := -1
	if len(ids) > 0 {
		top = ids[len(ids)-1]
	}
	n := min(top+1, t.max)
	sn := t.snap.Load()
	if sn.master != master || len(sn.vals) < n*t.width {
		sn = t.fill(master, n)
	}
	return sn.vals, top < t.max
}

// fill draws master's samples up to id n−1 that the table lacks,
// replacing a table of another master, and returns the snapshot it
// publishes (the current one when nothing was missing). A panicking
// draw publishes nothing, so no reader ever sees a half-drawn entry;
// the lock is held across the draws, which are pure functions of the
// generator and cannot reach the table.
func (t *DrawTable) fill(master uint64, n int) *drawSnap {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.snap.Load()
	next := &drawSnap{master: master}
	if old.master == master {
		if len(old.vals) >= n*t.width {
			return old
		}
		next.vals = old.vals
	}
	have := len(next.vals) / t.width
	if cap(next.vals) < n*t.width {
		c := min(max(n, 2*cap(next.vals)/t.width, minTableEntries), t.max)
		next.vals = append(make([]float64, 0, c*t.width), next.vals...)
	}
	next.vals = next.vals[:n*t.width]
	for id := have; id < n; id++ {
		t.r.Seed(rng.SampleSeed(master, id))
		t.draw(&t.r, next.vals[id*t.width:][:t.width])
	}
	t.snap.Store(next)
	return next
}
