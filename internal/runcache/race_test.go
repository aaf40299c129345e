//go:build race

package runcache

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop Puts at random and adds allocations of its own, so allocation
// counts are only gated without it (make allocs).
const raceEnabled = true
