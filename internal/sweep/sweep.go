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
// (clamped to [1, n]), handing the indices out in order, and returns once
// every task it started has returned. A non-nil stop is asked before
// each index goes out; once it reports true, Each hands out no more.
// n <= 0 starts nothing. task must be safe to call concurrently.
func Each(n, workers int, stop func() bool, task func(i int)) {
	if n <= 0 {
		return
	}
	workers = min(max(workers, 1), n)
	// Indices go out over an unbuffered channel, as in the pools this one
	// replaced. Pulling them off an atomic counter instead cost a
	// two-worker machine sweep about 15 % more CPU on a 2-vCPU host: the
	// profile showed longer GC mark phases and ~1.7× the write-barrier time.
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				task(i)
			}
		}()
	}
	for i := 0; i < n && (stop == nil || !stop()); i++ {
		next <- i
	}
	close(next)
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
