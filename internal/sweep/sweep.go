// Package sweep is the one worker pool every multi-run sweep goes
// through (Each): n independent runs of one configuration, run i seeded
// Seed(base, i), results in index order for any worker count, and a
// panicking run — a model bug, or a watchdog killing a livelock —
// ledgered instead of killing the process. The experiment executor runs
// every seed of every cell of a plan on the same pool.
package sweep

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pckpt/internal/stats"
)

// Seed derives run i's seed from the base seed with a SplitMix64-style
// mix, so neighbouring runs are uncorrelated. Every tier draws this
// sequence, which makes per-seed results comparable across tiers.
func Seed(base uint64, i int) uint64 {
	x := base + 0x9e3779b97f4a7c15*uint64(i+1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Run calls run(Seed(base, i)) for i in [0, n) on up to workers
// goroutines (clamped to [1, n]) and returns the results in index order.
// A run that panics leaves a zero R and a stats.FailedRun{Seed, Config:
// desc, Err} entry in the ledger, also in index order. n <= 0 returns
// nil, nil. run must be safe to call concurrently. It is the one-cell
// case of Each, the pool every sweep runs on.
func Run[R any](n int, base uint64, workers int, desc string, run func(seed uint64) R) ([]R, []stats.FailedRun) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]R, n)
	errs := make([]string, n)
	Each(n, workers, nil, func(i int) {
		out[i], errs[i] = Try(run, Seed(base, i))
	})
	var failed []stats.FailedRun
	for i, err := range errs {
		if err != "" {
			failed = append(failed, stats.FailedRun{Seed: Seed(base, i), Config: desc, Err: err})
		}
	}
	return out, failed
}

// Each calls task(i) for i in [0, n) on up to workers goroutines
// (clamped to [1, n]) and returns once every task it started has
// returned. Each index runs exactly once, and the indices run always
// form a prefix [0, k). A non-nil stop is asked before each claim: a
// worker it reports true to claims no more, while one whose ask came
// just before still claims and runs its index. Every worker asks stop,
// possibly at the same moment, so stop must be safe for concurrent use
// and must not block. n <= 0 starts nothing. task must be safe to call
// concurrently.
func Each(n, workers int, stop func() bool, task func(i int)) {
	if n <= 0 {
		return
	}
	workers = min(max(workers, 1), n)
	// Workers claim indices off one atomic cursor, so none waits for
	// another goroutine to be scheduled before its next task. Handed out
	// by a dispatcher goroutine over an unbuffered channel, 2,000 tasks of
	// 50 µs kept two workers on a 2-vCPU host 0.71–0.73 busy (0.99 with
	// the cursor), and an empty task cost 310–370 ns an index (22–23 ns;
	// BenchmarkEachUtilization). The channel was kept while a machine run
	// allocated about 2,200 times, when the cursor cost a machine sweep
	// about 15 % more CPU in GC; at 2.5 allocations a run the machine
	// benchmark's CPU per run is unchanged within its spread.
	var cursor atomic.Int64
	work := func() {
		for stop == nil || !stop() {
			i := cursor.Add(1) - 1
			if i >= int64(n) {
				return
			}
			task(int(i))
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// Try runs one seed, turning a panic into its rendering; err is "" when
// run returned.
func Try[R any](run func(seed uint64) R, seed uint64) (r R, err string) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Sprint(p)
		}
	}()
	return run(seed), ""
}

// Completed compacts results, in place and in index order, to the runs
// the ledger Run returned with them does not name.
func Completed[R any](results []R, base uint64, failed []stats.FailedRun) []R {
	out := results[:0]
	for i, r := range results {
		if len(failed) > 0 && failed[0].Seed == Seed(base, i) {
			failed = failed[1:]
			continue
		}
		out = append(out, r)
	}
	return out
}
