//go:build race

package optimize

// raceEnabled reports that this binary was built with the race
// detector, which deliberately drops a fraction of sync.Pool puts —
// making allocation-budget measurements over pooled scratch
// meaningless (and flaky). The alloc regression tests skip themselves
// under it; CI's bench job runs them without -race.
const raceEnabled = true
