package crmodel

import "pckpt/internal/sweep"

// RunSeed is sweep.Seed. Nothing in this module uses it; it stays because
// the benchmark's replay of the sweep paths (bench/replay.go, a separate
// module) calls it.
func RunSeed(base uint64, i int) uint64 { return sweep.Seed(base, i) }
