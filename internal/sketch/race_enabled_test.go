//go:build race

package sketch

// raceEnabled reports whether the race detector is active. Allocation
// counts are skipped under -race: sync.Pool deliberately drops items
// there, so AllocsPerRun is not stable.
const raceEnabled = true
