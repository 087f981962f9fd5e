//go:build race

package server

// raceEnabled reports whether the race detector is active: sync.Pool
// drops items at random under it, so allocation pins skip themselves.
const raceEnabled = true
