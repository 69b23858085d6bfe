package main

import (
	"strings"
	"testing"
)

func TestTickCount(t *testing.T) {
	for _, tc := range []struct {
		line string
		want int
		ok   bool
	}{
		{"tick", 30, true},
		{"tick 1", 1, true},
		{"tick 250", 250, true},
		{"tick abc", 0, false},
		{"tick -3", 0, false},
		{"tick 0", 0, false},
		{"tick 2.5", 0, false},
	} {
		t.Run(tc.line, func(t *testing.T) {
			n, ok := tickCount(strings.Fields(tc.line)[1:])
			if ok != tc.ok || (ok && n != tc.want) {
				t.Fatalf("tickCount(%q) = %d, %v; want %d, %v", tc.line, n, ok, tc.want, tc.ok)
			}
		})
	}
}
