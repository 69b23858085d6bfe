//go:build !race

package optimize

// See race_on_test.go.
const raceEnabled = false
