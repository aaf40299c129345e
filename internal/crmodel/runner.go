package crmodel

import (
	"fmt"
	"runtime"

	"pckpt/internal/stats"
	"pckpt/internal/sweep"
)

// SimulateN runs n independent simulations of cfg with seeds derived from
// baseSeed and aggregates the results. Runs execute in parallel across
// worker goroutines (each run is an isolated DES with its own RNG
// substream, so runs share nothing); results are accumulated in seed
// order, keeping the aggregate deterministic regardless of scheduling.
func SimulateN(cfg Config, n int, baseSeed uint64) *stats.Agg {
	return SimulateNWorkers(cfg, n, baseSeed, runtime.GOMAXPROCS(0))
}

// SimulateNWorkers is SimulateN with an explicit worker count (tests use
// 1 for reproducible profiling, benchmarks sweep it).
func SimulateNWorkers(cfg Config, n int, baseSeed uint64, workers int) *stats.Agg {
	cfg, desc := sweepConfig(cfg, n)
	results, failed := sweep.Run(n, baseSeed, workers, desc, func(seed uint64) stats.RunResult {
		return Simulate(cfg, seed)
	})
	return stats.NewAgg(sweep.Completed(results, baseSeed, failed), failed)
}

// sweepConfig defaults and validates cfg once, on the caller's
// goroutine, so an invalid configuration panics here instead of turning
// into n ledger entries (zero runs need no valid configuration). It drops
// any shared registry, which concurrent runs would race on, and returns
// the description failed-run ledger entries carry.
func sweepConfig(cfg Config, n int) (Config, string) {
	if n > 0 {
		cfg = cfg.withDefaults()
		if err := cfg.Validate(); err != nil {
			panic(err)
		}
	}
	cfg.Metrics = nil
	return cfg, fmt.Sprintf("model=%s app=%s system=%s", cfg.Model, cfg.App.Name, cfg.System.Name)
}

// RunSeed is sweep.Seed, kept because the benchmark's replay of the
// sweep paths (bench/replay.go) calls it; new code uses sweep.Seed.
func RunSeed(base uint64, i int) uint64 { return sweep.Seed(base, i) }
