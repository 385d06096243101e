//go:build race

package core

// raceEnabled reports that the race detector is on: sync.Pool then drops
// Puts at random, so allocation counts that rely on pooling do not hold.
const raceEnabled = true
