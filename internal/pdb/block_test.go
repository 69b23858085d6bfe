package pdb

import "testing"

// TestBlockCtxReusesRowChunks pins newRow's arena: rows are disjoint
// and capacity-clipped within a block, a reset block hands the earlier
// chunks out again in order (skipping one too small for a request),
// and a block that fits in the chunks already held allocates nothing.
func TestBlockCtxReusesRowChunks(t *testing.T) {
	ctx := &BlockCtx{}
	seeds := make([]uint64, 4)
	ctx.reset(seeds, nil, nil)
	a := ctx.newRow(3)
	b := ctx.newRow(1000) // still fits the first 1024-slot chunk
	ctx.newRow(50)        // opens a second chunk
	big := ctx.newRow(2000)
	if len(a) != 3 || cap(a) != 3 || len(b) != 1000 || cap(b) != 1000 {
		t.Fatalf("rows not clipped: len/cap a %d/%d, b %d/%d", len(a), cap(a), len(b), cap(b))
	}
	v := &Vec{}
	b[0] = v
	_ = append(a, &Vec{})
	if b[0] != v {
		t.Fatal("appending to one row overwrote the next")
	}
	if len(ctx.rowChunks) != 3 {
		t.Fatalf("first block holds %d chunks, want 3", len(ctx.rowChunks))
	}

	ctx.reset(seeds, nil, nil)
	if got := ctx.newRow(3); &got[0] != &a[0] {
		t.Fatal("reset block did not start on the first chunk")
	}
	// 1500 slots neither fit what is left of the first chunk nor the
	// second (1024 slots), so the request lands on the 2000-slot one.
	if got := ctx.newRow(1500); &got[0] != &big[0] {
		t.Fatal("oversized row did not reuse the large chunk")
	}
	if got := ctx.newRow(1100); cap(got) != 1100 || len(ctx.rowChunks) != 4 {
		t.Fatalf("row past the held chunks: cap %d, %d chunks, want 1100 and 4", cap(got), len(ctx.rowChunks))
	}

	allocs := testing.AllocsPerRun(10, func() {
		ctx.reset(seeds, nil, nil)
		ctx.newRow(3)
		ctx.newRow(1000)
		ctx.newRow(50)
		ctx.newRow(2000)
	})
	if allocs != 0 {
		t.Fatalf("steady-state block allocated %.0f times for its rows", allocs)
	}
}
