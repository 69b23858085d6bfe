package core

import "testing"

func TestFindRejectedCandidateAllocs(t *testing.T) {
	from := Fingerprint{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	to := Fingerprint{2, 4, 6, 8, 10, 12, 14, 16, 18, 21} // breaks linearity at the tail
	hit := Fingerprint{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	c := LinearClass{}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := c.Find(from, to); ok {
			t.Fatal("unexpected match")
		}
	})
	if allocs > 0 {
		t.Errorf("rejected Find allocates %.1f, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, ok := c.Find(from, hit); !ok {
			t.Fatal("expected match")
		}
	})
	if allocs != 0 {
		t.Errorf("successful Find allocates %.1f, want 0", allocs)
	}
}
