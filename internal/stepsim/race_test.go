//go:build race

package stepsim_test

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop Puts at random, so allocation counts that rely on the engine and
// cluster pools are only meaningful without it (make allocs).
const raceEnabled = true
