// Package pool provides the concurrency primitives shared by the
// hot paths: a worker-pool fan-out over an index range (ForWorker)
// whose workers claim one index at a time from a shared counter, so
// expensive items load-balance instead of pinning a fixed stripe to a
// slow worker, the panic recovery each item runs through (Call), and
// a typed free list (Pool) for per-worker scratch state.
package pool

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic recovered from fn by Call (and so by
// ForWorker): the index whose call panicked, the panic value and the
// panicking goroutine's stack.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Unwrap returns the panic value when it is an error.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// Call runs fn(w, i) and returns its panic, if any, as a *PanicError
// naming i. A value that is already a *PanicError (a nested ForWorker
// re-panicking on its caller's goroutine) keeps its value and stack
// under the outer index. ForWorker runs every index through it, and so
// does any loop of its own that must not die with its fn.
func Call(fn func(worker, i int), w, i int) (perr *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			if inner, ok := v.(*PanicError); ok {
				perr = &PanicError{Index: i, Value: inner.Value, Stack: inner.Stack}
				return
			}
			perr = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	fn(w, i)
	return nil
}

// ForWorker runs fn(worker, i) for every i in [0, n) on up to workers
// goroutines, each claiming the next unclaimed index when it finishes
// one. worker is a stable id in [0, workers) naming the goroutine
// that picked the index up; hot loops use it to give each
// worker private scratch state, since two calls with the same worker
// id never run concurrently. With workers <= 1 (or n <= 1) it
// degrades to a plain loop on the calling goroutine, as worker 0. A
// panic in fn does not kill the process: ForWorker recovers it, stops
// the other workers from picking up further indexes, and returns it as
// a *PanicError (the first one recovered, when several workers panic).
// Indexes already picked up still finish, so fn never races with the
// caller after ForWorker returns.
func ForWorker(n, workers int, fn func(worker, i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if perr := Call(fn, 0, i); perr != nil {
				return perr
			}
		}
		return nil
	}
	var next atomic.Int64
	// failed holds the first recovered panic; every worker stops
	// claiming indexes once it is set.
	var failed atomic.Pointer[PanicError]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for failed.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if perr := Call(fn, w, i); perr != nil {
					failed.CompareAndSwap(nil, perr)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if perr := failed.Load(); perr != nil {
		return perr
	}
	return nil
}

// Pool is a typed free list over sync.Pool: Get returns a recycled *T
// (or a new zero T), Put recycles it. The Monte Carlo engine keeps its
// per-worker scratch structs here so steady-state sweeps run
// allocation-free regardless of how many goroutines call in.
type Pool[T any] struct {
	p sync.Pool
}

// NewPool returns an empty pool of *T.
func NewPool[T any]() *Pool[T] {
	pl := &Pool[T]{}
	pl.p.New = func() any { return new(T) }
	return pl
}

// Get returns a scratch value, recycled when one is available.
func (pl *Pool[T]) Get() *T { return pl.p.Get().(*T) }

// Put recycles a scratch value. The caller must not retain x.
func (pl *Pool[T]) Put(x *T) { pl.p.Put(x) }
