//go:build race

package experiments

// raceEnabled reports that this binary was built with the race
// detector, which slows each engine by a different factor, so the
// timing shapes the figure tests assert say nothing under it.
// TestFigure7Shape skips its timing comparisons under it; CI's bench
// job runs it without -race.
const raceEnabled = true
