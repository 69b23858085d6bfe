package blackbox

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"jigsaw/internal/rng"
)

// TestDrawTableLoad: a block whose ids the table holds draws nothing, a
// higher last id fills exactly the missing ids, a block that straddles
// the bound reports all == false and fills the table to the bound and
// no further, and a block under another master replaces the table.
// Every entry is what its sample's seed draws.
func TestDrawTableLoad(t *testing.T) {
	var drawn []uint64 // the generator state each draw started from
	tab := NewDrawTable(2, func(r *rng.Rand, d []float64) {
		s := r.State()
		drawn = append(drawn, s[0])
		d[0], d[1] = r.Float64(), r.StdNormal()
	})
	if want := maxTableBytes / 16; tab.Bound() != want || tab.Width() != 2 {
		t.Fatalf("width-2 table: Bound %d, Width %d; want %d, 2", tab.Bound(), tab.Width(), want)
	}
	tab.max = 10
	check := func(master uint64, ids []int, wantAll bool, wantIDs ...int) {
		t.Helper()
		drawn = drawn[:0]
		vals, all := tab.Load(master, ids)
		if all != wantAll {
			t.Fatalf("Load(%d, %v): all = %v, want %v", master, ids, all, wantAll)
		}
		if len(drawn) != len(wantIDs) {
			t.Fatalf("Load(%d, %v) drew %d vectors, want ids %v", master, ids, len(drawn), wantIDs)
		}
		for i, id := range wantIDs {
			if s := rng.New(rng.SampleSeed(master, id)).State(); drawn[i] != s[0] {
				t.Fatalf("Load(%d, %v): draw %d is not sample %d's", master, ids, i, id)
			}
		}
		for _, id := range ids {
			if id >= tab.max {
				continue
			}
			r := rng.New(rng.SampleSeed(master, id))
			want := []float64{r.Float64(), r.StdNormal()}
			if got := vals[id*2:][:2]; math.Float64bits(got[0]) != math.Float64bits(want[0]) || math.Float64bits(got[1]) != math.Float64bits(want[1]) {
				t.Fatalf("Load(%d, %v): sample %d = %v, want %v", master, ids, id, got, want)
			}
		}
		if len(vals) > tab.max*2 {
			t.Fatalf("Load(%d, %v): the table holds %d entries, past its bound %d", master, ids, len(vals)/2, tab.max)
		}
	}
	check(7, nil, true)
	check(7, []int{0, 1, 2}, true, 0, 1, 2)
	check(7, []int{1, 1, 2}, true)
	check(7, []int{2, 5}, true, 3, 4, 5)
	check(7, []int{4, 8, 9, 10, 12}, false, 6, 7, 8, 9)
	check(7, []int{3, 9}, true)
	check(8, []int{0, 1}, true, 0, 1)
	check(7, []int{2}, true, 0, 1, 2)
}

// TestDrawTableApplyMatchesEval: a model's DrawBox.Apply over a
// DrawTable filled with its Draw returns, for every id of blocks of 1,
// 7, 64 and 1000 ascending ids, the bits of Eval on a generator seeded
// with that sample's seed. The blocks run past minTableEntries, so the
// table regrows between them.
func TestDrawTableApplyMatchesEval(t *testing.T) {
	const master = 0x5161
	for _, tc := range []struct {
		name string
		box  DrawBox
		args [][]float64
	}{
		{"Demand", NewDemand(), [][]float64{
			{10, 52}, // pre-release branch
			{30, 12}, // post-release branch
			{0, 0},   // degenerate zero-variance week
			{12, 12}, // boundary week == feature
		}},
		{"Capacity", NewCapacity(), [][]float64{
			{0, 10, 20},
			{15, 10, 20}, // mid-horizon, first purchase may have landed
			{52, 1, 2},   // both purchases long since landed
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r rng.Rand
			state := make([]float64, tc.box.BoundLen())
			for _, args := range tc.args {
				tab := NewDrawTable(tc.box.Draws(), tc.box.Draw)
				tc.box.Bind(args, state)
				lo := 0
				for _, n := range []int{1, 7, 64, 1000} {
					ids := make([]int, n)
					for j := range ids {
						ids[j] = lo + j
					}
					lo += n
					vals, all := tab.Load(master, ids)
					if !all {
						t.Fatalf("args=%v block=%d: ids below the bound report all == false", args, n)
					}
					got := make([]float64, n)
					tc.box.Apply(state, vals, tab.Width(), ids, got)
					for j, id := range ids {
						r.Seed(rng.SampleSeed(master, id))
						if want := tc.box.Eval(args, &r); math.Float64bits(got[j]) != math.Float64bits(want) {
							t.Fatalf("args=%v block=%d sample %d: Apply %v, Eval %v", args, n, id, got[j], want)
						}
					}
				}
			}
		})
	}
}

// tableDraw is a width-2 draw for table tests.
func tableDraw(r *rng.Rand, d []float64) { d[0], d[1] = r.Float64(), r.StdNormal() }

// sameBits reports whether got is want's prefix bit for bit.
func sameBits(got, want []float64) bool {
	if len(got) > len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// TestDrawTableChunkingInvariant: loading ids 0 to 2999 in blocks of
// any size leaves the entries one Load of them all draws, so a
// caller's block size is a pure performance knob; and no fill changes
// what an earlier Load returned, though a later snapshot may share its
// backing array.
func TestDrawTableChunkingInvariant(t *testing.T) {
	const master, n = 0x99, 3000
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	whole, _ := NewDrawTable(2, tableDraw).Load(master, all)
	if len(whole) != 2*n {
		t.Fatalf("one Load of %d ids holds %d entries", n, len(whole)/2)
	}
	for _, chunk := range []int{1, 7, 33, 1000} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			tab := NewDrawTable(2, tableDraw)
			var seen [][]float64
			for lo := 0; lo < n; lo += chunk {
				vals, _ := tab.Load(master, all[lo:min(lo+chunk, n)])
				seen = append(seen, vals)
			}
			for i, vals := range seen {
				if !sameBits(vals, whole) {
					t.Fatalf("the snapshot of block %d differs from one Load's entries", i)
				}
			}
			if last := seen[len(seen)-1]; len(last) != len(whole) {
				t.Fatalf("blocks of %d hold %d entries, want %d", chunk, len(last)/2, n)
			}
		})
	}
}

// TestDrawTableConcurrentLoad: goroutines that load ascending blocks of
// one table under two masters, so that each replaces the other's
// table, each read every id of their block as their master's sample.
// Run it under -race: readers take no lock.
func TestDrawTableConcurrentLoad(t *testing.T) {
	const n = 1500
	masters := []uint64{3, 4}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	want := make(map[uint64][]float64)
	for _, m := range masters {
		want[m], _ = NewDrawTable(2, tableDraw).Load(m, all)
	}
	tab := NewDrawTable(2, tableDraw)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, step := masters[g%2], 50+17*g
			for lo := 0; lo < n; lo += step {
				ids := all[lo:min(lo+step, n)]
				vals, _ := tab.Load(m, ids)
				for _, id := range ids {
					if !sameBits(vals[id*2:][:2], want[m][id*2:][:2]) {
						errs <- fmt.Errorf("goroutine %d, master %d: sample %d is not its draw", g, m, id)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
