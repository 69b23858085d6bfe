//go:build !race

package exec

// See race_on_test.go.
const raceEnabled = false
