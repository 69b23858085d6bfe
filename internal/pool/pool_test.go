package pool

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		const n = 57
		var hits [n]atomic.Int32
		if err := ForWorker(n, workers, func(_, i int) {
			hits[i].Add(1)
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForZeroItems(t *testing.T) {
	if err := ForWorker(0, 4, func(int, int) { t.Fatal("fn called") }); err != nil {
		t.Fatal(err)
	}
}

func TestForWorkerIdsAreStableAndBounded(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 4, 16} {
		var hits [n]atomic.Int32
		var badWorker atomic.Int32
		if err := ForWorker(n, workers, func(w, i int) {
			if w < 0 || w >= workers {
				badWorker.Store(1)
			}
			hits[i].Add(1)
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if badWorker.Load() != 0 {
			t.Fatalf("workers=%d: worker id out of range", workers)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d not covered exactly once", workers, i)
			}
		}
	}
}

func TestForWorkerSequentialUsesWorkerZero(t *testing.T) {
	if err := ForWorker(5, 1, func(w, _ int) {
		if w != 0 {
			t.Fatalf("sequential path worker id = %d", w)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolRecycles(t *testing.T) {
	type buf struct{ xs []int }
	p := NewPool[buf]()
	// sync.Pool may drop a Put (under the race detector it drops one in
	// four on purpose), so offer a value several times: a pool that
	// never hands one back, capacity and all, pools nothing.
	for i := 0; i < 20; i++ {
		a := &buf{xs: make([]int, 0, 8)}
		p.Put(a)
		if p.Get() == a {
			return
		}
	}
	t.Fatal("pool never handed a recycled value back")
}

func TestPoolEmptyGetIsZero(t *testing.T) {
	p := NewPool[int]()
	if x := p.Get(); x == nil || *x != 0 {
		t.Fatal("an empty pool did not produce a zero value")
	}
}

func TestForWorkerRecoversPanic(t *testing.T) {
	const n, bad = 500, 17
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForWorker(n, workers, func(_, i int) {
			ran.Add(1)
			if i == bad {
				panic("boom")
			}
			// Slow enough that the early panic is seen before the
			// other workers could run every index.
			time.Sleep(100 * time.Microsecond)
		})
		var perr *PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("workers=%d: err = %v, want a *PanicError", workers, err)
		}
		if perr.Index != bad || perr.Value != "boom" || len(perr.Stack) == 0 {
			t.Fatalf("workers=%d: panic error %+v", workers, perr)
		}
		if workers == 1 && ran.Load() != bad+1 {
			t.Fatalf("sequential path ran %d indexes after a panic at %d", ran.Load(), bad)
		}
		if ran.Load() == n {
			t.Fatalf("workers=%d: a panic did not stop the other indexes", workers)
		}
	}
}

func TestNestedPanicKeepsInnerValue(t *testing.T) {
	cause := errors.New("model failure")
	err := ForWorker(3, 2, func(_, i int) {
		if i != 2 {
			return
		}
		if err := ForWorker(8, 2, func(_, j int) {
			if j == 5 {
				panic(cause)
			}
		}); err != nil {
			panic(err) // resume on the outer worker's goroutine
		}
	})
	var perr *PanicError
	if !errors.As(err, &perr) || perr.Index != 2 {
		t.Fatalf("err = %#v, want the outer index 2", err)
	}
	if !errors.Is(err, cause) || err.Error() != "panic: model failure" {
		t.Fatalf("err = %q, want the inner panic value", err)
	}
}

// TestForWorkerSlowIndexDoesNotHoldBackNext checks that workers claim
// one index at a time: while index 0 is still running, another worker
// picks up index 1, however long the job. A worker that claimed a run
// of indexes would hold index 1 behind index 0.
func TestForWorkerSlowIndexDoesNotHoldBackNext(t *testing.T) {
	const n = 8192
	oneRan := make(chan struct{})
	if err := ForWorker(n, 2, func(_, i int) {
		switch i {
		case 0:
			select {
			case <-oneRan:
			case <-time.After(10 * time.Second):
				t.Error("index 1 did not run while index 0 was running")
			}
		case 1:
			close(oneRan)
		}
	}); err != nil {
		t.Fatal(err)
	}
}
