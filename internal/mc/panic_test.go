package mc

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"jigsaw/internal/pool"
	"jigsaw/internal/rng"
)

// panicRow is a three-output row model that panics on its at-th
// evaluation at the point whose week is bad: at ≤ m lands in phase A
// (fingerprints), at = m+1 in phase C1 (the point's full simulation;
// its outputs map onto no other point's, so it always misses). A value
// row holds the week alone; it is bound into slot 3.
type panicRow struct {
	bad   float64
	at    int64
	count atomic.Int64
}

func (r *panicRow) RowLen() int { return 4 }

func (r *panicRow) BindRow(vals, row []float64) { row[3] = vals[0] }

func (r *panicRow) FillRow(rr *rng.Rand, row []float64) {
	w := row[3]
	if w == r.bad && r.count.Add(1) == r.at {
		panic("model failure")
	}
	x := rr.Uniform(0, 1)
	if w == r.bad {
		x = math.Exp(3 * x) // no basis maps onto the bad point: it is simulated
	}
	row[0], row[1], row[2] = x*(w+1), x+w, x*x
}

// TestSweepPanicReturnsError checks that a panicking evaluator, in
// either parallel phase and in a sweep of one output or three, stops
// the sweep with an error naming the point instead of killing the
// process.
func TestSweepPanicReturnsError(t *testing.T) {
	const m, bad = 10, 7
	var points [][]float64
	for w := 0; w < 20; w++ {
		points = append(points, []float64{float64(w)})
	}
	for _, tc := range []struct {
		name    string
		samples int
		points  [][]float64
		badAt   int // the bad point's batch position
	}{
		{"batch", 200, points, bad},
		// A one-point batch draws its samples on the one worker
		// that holds the point.
		{"one-point", 1024 + m, [][]float64{{bad}}, 0},
	} {
		for _, workers := range []int{1, 2} {
			for _, at := range []int64{1, m + 1} {
				for _, k := range []int{1, 3} {
					name := fmt.Sprintf("%s/workers=%d/at=%d/k=%d", tc.name, workers, at, k)
					t.Run(name, func(t *testing.T) {
						opts := Options{
							Samples: tc.samples, FingerprintLen: m, MasterSeed: 0x5161,
							Reuse: true, Workers: workers,
						}
						row := &panicRow{bad: bad, at: at}
						var err error
						if k == 1 {
							_, _, err = MustNew(opts).SweepBatch(rowEval{row, []int{0}}, tc.points)
						} else {
							_, _, err = sweepRows(MustNew(opts), rowEval{row, []int{0, 1, 2}}, 3, tc.points)
						}
						var perr *pool.PanicError
						if !errors.As(err, &perr) || perr.Value != "model failure" {
							t.Fatalf("err = %v, want the recovered panic", err)
						}
						want := fmt.Sprintf("point %d [%d]: ", tc.badAt, bad)
						if !strings.HasPrefix(err.Error(), want) {
							t.Fatalf("err = %q, want prefix %q", err, want)
						}
					})
				}
			}
		}
	}
}

func TestSweepStreamRejectsNoOutputs(t *testing.T) {
	e := MustNew(Options{Samples: 100, FingerprintLen: 10, MasterSeed: 1, Workers: 1})
	f := rowEval{&panicRow{bad: -1}, nil}
	row := func(_ int, dst []float64) []float64 { return append(dst, 1) }
	for _, k := range []int{0, -1} {
		if _, err := e.SweepStream(f, k, 1, row, func(int, []PointResult) {}); err == nil {
			t.Errorf("SweepStream of %d outputs accepted", k)
		}
	}
}
