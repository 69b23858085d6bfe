package rng

import (
	"math"
	"testing"
)

// scalarFill is FillStdNormal's oracle: len(z) StdNormal calls.
func scalarFill(r *Rand, z []float64) {
	for i := range z {
		z[i] = r.StdNormal()
	}
}

// checkFills runs the fills of lens back to back on r and on a copy
// drawn by the oracle, and fails unless every variate has the oracle's
// bits and r ends each fill as the oracle's Rand, cached variate and
// its flag included.
func checkFills(t *testing.T, r *Rand, lens []int) {
	t.Helper()
	ref := *r
	for k, n := range lens {
		want, got := make([]float64, n), make([]float64, n)
		cached := r.hasGauss
		scalarFill(&ref, want)
		r.FillStdNormal(got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("fill %d of %v (cached %t): z[%d] = %v, StdNormal %v", k, lens, cached, i, got[i], want[i])
			}
		}
		if *r != ref || math.Float64bits(r.gauss) != math.Float64bits(ref.gauss) {
			t.Fatalf("fill %d of %v (cached %t): Rand %+v, StdNormal leaves %+v", k, lens, cached, *r, ref)
		}
	}
}

// TestFillStdNormalMatchesScalar: every length from 0 to 600, from a
// fresh generator and from one holding a cached variate, and runs of
// fills back to back (odd lengths hand the cache from one fill to the
// next), give StdNormal's variates and leave StdNormal's generator.
func TestFillStdNormalMatchesScalar(t *testing.T) {
	for n := 0; n <= 600; n++ {
		for _, cached := range []bool{false, true} {
			r := New(uint64(n)*0x9e37 + 1)
			if cached {
				r.StdNormal()
			}
			checkFills(t, r, []int{n})
		}
	}
	for _, lens := range [][]int{
		{1, 1, 1, 1}, {3, 0, 1, 256, 7, 2}, {255, 256, 257}, {2, 511, 600, 1}, {0, 0, 5},
	} {
		r := New(uint64(len(lens)) << 20)
		checkFills(t, r, lens)
		r.StdNormal()
		checkFills(t, r, lens)
	}
}

// FuzzFillStdNormal: any seed, cache state and run of fill lengths (two
// bytes a length, up to 600) matches the StdNormal oracle.
func FuzzFillStdNormal(f *testing.F) {
	f.Add(uint64(1), false, []byte{0, 7})
	f.Add(uint64(2), true, []byte{0, 1, 0, 2, 1, 0})
	f.Add(uint64(3), true, []byte{2, 88, 0, 0, 0, 255})
	f.Add(uint64(4), false, []byte{1, 1, 0, 3, 2, 0, 0, 1})
	f.Fuzz(func(t *testing.T, seed uint64, cached bool, raw []byte) {
		var lens []int
		for i := 0; i+1 < len(raw) && len(lens) < 8; i += 2 {
			lens = append(lens, (int(raw[i])<<8|int(raw[i+1]))%601)
		}
		r := New(seed)
		if cached {
			r.StdNormal()
		}
		checkFills(t, r, lens)
	})
}

// BenchmarkFillStdNormal draws a block of 256 variates by one fill and
// by a StdNormal loop.
func BenchmarkFillStdNormal(b *testing.B) {
	z := make([]float64, 256)
	for _, bc := range []struct {
		name string
		fill func(*Rand, []float64)
	}{
		{"fill", (*Rand).FillStdNormal},
		{"scalar", scalarFill},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := New(1)
			for i := 0; i < b.N; i++ {
				bc.fill(r, z)
			}
		})
	}
}
