package exec

import (
	"sync"
	"sync/atomic"

	"jigsaw/internal/rng"
)

// drawTable holds a seed-only row's draw vectors by sample id (see
// Scenario.SharesDraws): under common random numbers sample (master,
// id) takes the same draws at every point, so a scenario draws each
// sample's vector once and every later point's sites read it here.
// The table holds one master's samples 0 to n−1 densely; a block under
// another master replaces it. Every caller that exists draws under one
// master per call (perfbench compiles a Scenario per answer, and
// cmd/jigsaw, sessions, optimize.Run and RunGraph use one master
// each), so a replacement costs only interleaved callers their reuse,
// never a wrong value.
//
// Readers take no lock: they index an immutable snapshot loaded
// through an atomic pointer. A block whose largest id the snapshot
// lacks calls fill, which under mu draws the missing ids up to it into
// a new snapshot and publishes it, so a sweep publishes about once per
// block of new ids and never in steady state. The table lives as long
// as its Scenario and holds at most maxTableBytes of draws; an id past
// that bound is drawn into the row's draw block on every use.
type drawTable struct {
	// width is the draw vector's length, and max the id bound.
	width, max int
	mu         sync.Mutex
	snap       atomic.Pointer[drawSnap]
}

// drawSnap is one published state of a drawTable: sample id's draws
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

func newDrawTable(width int) *drawTable {
	t := &drawTable{width: width, max: maxTableBytes / (8 * width)}
	t.snap.Store(&drawSnap{})
	return t
}

// load returns the draws of master's samples 0 to n−1, n covering
// every id of ids below the bound, filling the table first when its
// snapshot falls short; all reports that no id is past the bound.
func (t *drawTable) load(s *Scenario, master uint64, ids []int, r *rng.Rand) (vals []float64, all bool) {
	top := -1
	for _, id := range ids {
		top = max(top, id)
	}
	n := min(top+1, t.max)
	sn := t.snap.Load()
	if sn.master != master || len(sn.vals) < n*t.width {
		sn = t.fill(s, master, n, r)
	}
	return sn.vals, top < t.max
}

// fill draws master's samples up to id n−1 that the table lacks,
// replacing a table of another master, and returns the snapshot it
// publishes (the current one when nothing was missing). Each sample is
// drawn from r, seeded with its seed, through s.drawRow. A panicking
// Draw publishes nothing, so no reader ever sees a half-drawn entry;
// the lock is held across the draws, which are pure functions of the
// generator and cannot reach the table.
func (t *drawTable) fill(s *Scenario, master uint64, n int, r *rng.Rand) *drawSnap {
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
		r.Seed(rng.SampleSeed(master, id))
		s.drawRow(r, next.vals[id*t.width:])
	}
	t.snap.Store(next)
	return next
}
