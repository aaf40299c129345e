//go:build race

package machine_test

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop Puts at random, so allocation counts that rely on the engine and
// node-table pools are only meaningful without it (make allocs).
const raceEnabled = true
