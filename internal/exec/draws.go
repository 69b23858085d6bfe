package exec

import (
	"sync"
	"sync/atomic"

	"jigsaw/internal/rng"
)

// drawTable maps a sample seed to a seed-only row's draw vector (see
// Scenario.SharesDraws): under common random numbers the sample
// seeded by σ takes the same draws at every point, so a scenario draws
// each seed's vector once and every later point copies it into the
// row. A draw vector is a pure function of its seed, so the seed
// itself is the key: engines with different master seeds, interactive
// sessions drawing scattered sample ids and concurrent sweeps all
// share one table without a wrong hit.
//
// Readers take no lock: they look seeds up in an immutable snapshot
// loaded through an atomic pointer. A reader that misses calls fill,
// which under mu draws every missing seed of its block into a new
// snapshot and publishes it, so a sweep publishes about once per block
// of new seeds and never in steady state. The table lives as long as
// its Scenario and stops admitting entries at maxTableBytes; a seed
// beyond that is drawn into the row on every use.
type drawTable struct {
	// width is the draw vector's length, and max the entry bound.
	width, max int
	mu         sync.Mutex
	snap       atomic.Pointer[drawSnap]
}

// drawSnap is one published state of a drawTable. Entries are only
// appended: a later snapshot may share vals' backing array and write
// past this one's length, which no reader of this one reads, so what
// a snapshot shows never changes.
type drawSnap struct {
	// slots is an open-addressing index keyed on a seed's low bits
	// (seeds are splitmix64 outputs, so the low bits are uniform). Its
	// length is a power of two, at least twice the entry count.
	slots []drawSlot
	// vals holds entry e's draws at vals[e*width : (e+1)*width].
	vals []float64
}

// drawSlot tags an entry with its seed; entry is the entry index + 1,
// or 0 for an empty slot.
type drawSlot struct {
	seed  uint64
	entry int32
}

const (
	// maxTableBytes bounds a table's memory: entries and index.
	maxTableBytes = 4 << 20
	// minTableEntries is the capacity a table first allocates, enough
	// for every seed of a 1000-sample sweep.
	minTableEntries = 1024
)

func newDrawTable(width int) *drawTable {
	// An entry costs its draws and, at most, two 16-byte slots.
	t := &drawTable{width: width, max: maxTableBytes / (8*width + 32)}
	t.snap.Store(&drawSnap{slots: make([]drawSlot, 1)})
	return t
}

// find returns seed's draw vector, or nil when the snapshot lacks it.
func (sn *drawSnap) find(seed uint64, width int) []float64 {
	mask := uint64(len(sn.slots) - 1)
	for h := seed & mask; ; h = (h + 1) & mask {
		sl := sn.slots[h]
		if sl.entry == 0 {
			return nil
		}
		if sl.seed == seed {
			e := int(sl.entry) - 1
			return sn.vals[e*width : (e+1)*width : (e+1)*width]
		}
	}
}

// insert indexes a slot; the slot index must have room.
func (sn *drawSnap) insert(sl drawSlot) {
	mask := uint64(len(sn.slots) - 1)
	h := sl.seed & mask
	for sn.slots[h].entry != 0 {
		h = (h + 1) & mask
	}
	sn.slots[h] = sl
}

// fill draws every seed of seeds the table lacks, while it has room,
// and returns the snapshot it publishes (the current one when nothing
// was missing). Each seed is drawn from r, freshly seeded, through
// s.drawRow. A panicking Draw publishes nothing, so no reader ever
// sees a half-drawn entry; the lock is held across the draws, which
// are pure functions of the generator and cannot reach the table.
func (t *drawTable) fill(s *Scenario, seeds []uint64, r *rng.Rand) *drawSnap {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.snap.Load()
	n := len(old.vals) / t.width
	add := 0
	for _, seed := range seeds {
		if old.find(seed, t.width) == nil {
			add++
		}
	}
	add = min(add, t.max-n)
	if add == 0 {
		return old
	}
	next := &drawSnap{vals: old.vals}
	if want := (n + add) * t.width; cap(next.vals) < want {
		c := min(max(n+add, 2*cap(old.vals)/t.width, minTableEntries), t.max)
		next.vals = append(make([]float64, 0, c*t.width), old.vals...)
	}
	size := len(old.slots)
	for size < 2*(n+add) {
		size *= 2
	}
	next.slots = make([]drawSlot, size)
	if size == len(old.slots) {
		copy(next.slots, old.slots)
	} else {
		for _, sl := range old.slots {
			if sl.entry != 0 {
				next.insert(sl)
			}
		}
	}
	e := n
	for _, seed := range seeds {
		if e == n+add {
			break
		}
		if next.find(seed, t.width) != nil {
			continue
		}
		next.vals = next.vals[:(e+1)*t.width]
		r.Seed(seed)
		s.drawRow(r, next.vals[e*t.width:])
		next.insert(drawSlot{seed: seed, entry: int32(e + 1)})
		e++
	}
	t.snap.Store(next)
	return next
}
