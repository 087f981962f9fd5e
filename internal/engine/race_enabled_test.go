//go:build race

package engine

// raceEnabled reports whether the race detector is active, which slows
// the exhaustive equivalence sweeps tenfold: under it they sample.
const raceEnabled = true
