// Package pool provides the concurrency primitives shared by the
// hot paths: a worker-pool fan-out over an index range (For /
// ForWorker) with atomic work-stealing, so expensive items
// load-balance instead of pinning a fixed stripe to a slow worker,
// and a typed free list (Pool) for per-worker scratch state.
package pool

import (
	"context"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n) on up to workers goroutines.
// With workers <= 1 (or n <= 1) it degrades to a plain loop on the
// calling goroutine. It stops scheduling new indexes once ctx is
// cancelled and returns ctx.Err(); indexes already picked up still
// finish, so fn never races with the caller after For returns.
func For(ctx context.Context, n, workers int, fn func(i int)) error {
	return ForWorker(ctx, n, workers, func(_, i int) { fn(i) })
}

// forChunkTarget and forChunkMax bound the work-stealing grain: each
// atomic claim hands a worker a contiguous run of indexes sized so a
// worker makes ~forChunkTarget claims over the whole job (bounded by
// forChunkMax so uneven items still load-balance). For cheap per-item
// fn — a sweep's fingerprints of a cheap model, or its mapped results
// — per-item claims would spend a visible fraction of the phase in the
// contended counter.
const (
	forChunkTarget = 32
	forChunkMax    = 64
)

// ForWorker is For with the worker's identity passed to fn: the first
// argument is a stable id in [0, workers) naming the goroutine that
// picked the index up (always 0 on the degenerate sequential path).
// Hot loops use it to give each worker private scratch state — two
// calls with the same worker id never run concurrently.
func ForWorker(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, i)
		}
		return nil
	}
	chunk := n / (workers * forChunkTarget)
	if chunk < 1 {
		chunk = 1
	} else if chunk > forChunkMax {
		chunk = forChunkMax
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					if ctx.Err() != nil {
						return
					}
					fn(w, i)
				}
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}

// Pool is a typed free list over sync.Pool: Get returns a recycled *T
// (or a fresh one from New), Put recycles it. The Monte Carlo engine
// keeps its per-worker scratch structs here so steady-state sweeps
// run allocation-free regardless of how many goroutines call in.
type Pool[T any] struct {
	p   sync.Pool
	New func() *T
}

// NewPool returns a pool constructing values with newT (which may be
// nil when the zero value of T is usable).
func NewPool[T any](newT func() *T) *Pool[T] {
	pl := &Pool[T]{New: newT}
	pl.p.New = func() any {
		if pl.New != nil {
			return pl.New()
		}
		return new(T)
	}
	return pl
}

// Get returns a scratch value, recycled when one is available.
func (pl *Pool[T]) Get() *T { return pl.p.Get().(*T) }

// Put recycles a scratch value. The caller must not retain x.
func (pl *Pool[T]) Put(x *T) { pl.p.Put(x) }
