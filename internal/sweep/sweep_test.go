package sweep_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pckpt/internal/sim"
	"pckpt/internal/stats"
	"pckpt/internal/sweep"
)

// TestRun is the runner's table: every n, worker count (non-positive,
// one, two, more than n) and planted panic position must give the same
// index-ordered results, run each seed exactly once, and ledger exactly
// the planted run with its seed, desc and panic text — including a
// *sim.WatchdogError's diagnostic.
func TestRun(t *testing.T) {
	const base, desc = 7, "cfg=test"
	watchdog := &sim.WatchdogError{Reason: "event limit", Events: 101, Name: "compute"}
	for _, n := range []int{0, 1, 6} {
		for _, at := range []struct {
			name string
			idx  int
			val  any
		}{
			{"first", 0, "planted crash"},
			{"middle", n / 2, watchdog},
			{"last", n - 1, fmt.Errorf("planted error")},
		} {
			t.Run(fmt.Sprintf("n=%d/panic=%s", n, at.name), func(t *testing.T) {
				index := map[uint64]int{}
				for i := 0; i < n; i++ {
					index[sweep.Seed(base, i)] = i
				}
				var ref []uint64
				for _, workers := range []int{-1, 0, 1, 2, n + 3} {
					calls := make([]atomic.Int32, n)
					out, failed := sweep.Run(n, base, workers, desc, func(seed uint64) uint64 {
						i := index[seed]
						calls[i].Add(1)
						if i == at.idx {
							panic(at.val)
						}
						return seed ^ 0xabcd
					})
					if len(out) != n {
						t.Fatalf("workers=%d: %d results, want %d", workers, len(out), n)
					}
					for i := range calls {
						if c := calls[i].Load(); c != 1 {
							t.Fatalf("workers=%d: run %d called %d times", workers, i, c)
						}
					}
					var want []stats.FailedRun
					if n > 0 {
						want = []stats.FailedRun{{Seed: sweep.Seed(base, at.idx), Config: desc, Err: fmt.Sprint(at.val)}}
					}
					if !reflect.DeepEqual(failed, want) {
						t.Fatalf("workers=%d: ledger %+v, want %+v", workers, failed, want)
					}
					for i, r := range out {
						wantR := sweep.Seed(base, i) ^ 0xabcd
						if i == at.idx {
							wantR = 0
						}
						if r != wantR {
							t.Fatalf("workers=%d: out[%d] = %#x, want %#x", workers, i, r, wantR)
						}
					}
					if workers == -1 {
						ref = out
					} else if !reflect.DeepEqual(out, ref) {
						t.Fatalf("workers=%d: results differ from workers=-1", workers)
					}
					if at.val == watchdog && n > 0 {
						for _, frag := range []string{"watchdog", "event limit", "compute"} {
							if !strings.Contains(failed[0].Err, frag) {
								t.Fatalf("watchdog diagnostic %q lost %q in the ledger", failed[0].Err, frag)
							}
						}
					}
				}
			})
		}
	}
}

// TestRunLedgersNaNEventTime: a run that schedules an event at a NaN
// time panics in the engine's past-time check and lands in the ledger,
// instead of finishing with the NaN event queued out of (time, seq)
// order.
func TestRunLedgersNaNEventTime(t *testing.T) {
	const base = 11
	out, failed := sweep.Run(3, base, 2, "cfg=nan", func(seed uint64) float64 {
		delay := 2.0
		if seed == sweep.Seed(base, 1) {
			delay = math.NaN()
		}
		eng := sim.NewEngine()
		eng.After(1, "", func() { eng.After(delay, "next", func() {}) })
		return eng.RunAll()
	})
	if len(failed) != 1 || failed[0].Seed != sweep.Seed(base, 1) || !strings.Contains(failed[0].Err, "scheduling into the past") {
		t.Fatalf("ledger %+v, want run 1's past-time panic", failed)
	}
	if out[0] != 3 || out[2] != 3 {
		t.Fatalf("results %v, want the other runs to end at t=3", out)
	}
}

// TestCompleted drops exactly the ledgered runs and keeps index order.
func TestCompleted(t *testing.T) {
	const base = 3
	results := []int{0, 1, 2, 3, 4, 5}
	failed := []stats.FailedRun{{Seed: sweep.Seed(base, 0)}, {Seed: sweep.Seed(base, 3)}, {Seed: sweep.Seed(base, 5)}}
	if got := sweep.Completed(results, base, failed); !reflect.DeepEqual(got, []int{1, 2, 4}) {
		t.Fatalf("Completed = %v, want [1 2 4]", got)
	}
	if got := sweep.Completed([]int{9, 8}, base, nil); !reflect.DeepEqual(got, []int{9, 8}) {
		t.Fatalf("Completed with an empty ledger = %v, want [9 8]", got)
	}
}

// TestSweepRunAllocsConstant pins that the runner's own allocations do
// not grow with the run count: the result and ledger slices are one
// allocation each, and the workers claim indices off one atomic cursor.
func TestSweepRunAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			out, failed := sweep.Run(n, 1, 2, "allocs", func(seed uint64) uint64 { return seed })
			if len(out) != n || len(failed) != 0 {
				t.Fatalf("n=%d: %d results, %d failures", n, len(out), len(failed))
			}
		})
	}
	small, large := allocs(8), allocs(4096)
	if large > small {
		t.Fatalf("allocations grow with n: %.0f at n=8, %.0f at n=4096", small, large)
	}
}

// TestEachClaimsEveryIndexOnce runs every index exactly once for any
// worker count, and returns only once every task has returned: each
// task sleeps before it sets its flag, so a pool that returned early
// would leave flags unset.
func TestEachClaimsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 7, n + 3} {
			calls := make([]atomic.Int32, n)
			done := make([]atomic.Bool, n)
			sweep.Each(n, workers, nil, func(i int) {
				calls[i].Add(1)
				time.Sleep(time.Microsecond)
				done[i].Store(true)
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
				if !done[i].Load() {
					t.Fatalf("n=%d workers=%d: Each returned before index %d's task did", n, workers, i)
				}
			}
		}
	}
}

// TestEachStopsAtAPrefix flips the stop flag from task k while every
// worker asks stop concurrently. The indices run must form a prefix
// [0, m) that holds k, and every claimed index must have run: each stop
// answer of false is followed by one claim, and no claim reaches n, so
// the claims are exactly the false answers. After the flip, only a
// worker whose ask had already passed may claim, at most one each, so m
// exceeds the claims counted at the flip by less than workers. Tasks past
// k wait for the flip, so before it each other worker holds at most one
// of them, and m stays below k + 2·workers. Last, a stop that answers
// true once retires one worker and no index: the others run every index.
func TestEachStopsAtAPrefix(t *testing.T) {
	const n = 100000
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0) + 3} {
		for _, k := range []int{0, 1, 37, 999} {
			var stopped atomic.Bool
			var claims, atFlip atomic.Int64
			ran := make([]atomic.Bool, n)
			sweep.Each(n, workers, func() bool {
				if stopped.Load() {
					return true
				}
				claims.Add(1)
				return false
			}, func(i int) {
				if ran[i].Swap(true) {
					t.Errorf("workers=%d k=%d: index %d ran twice", workers, k, i)
				}
				if i == k {
					stopped.Store(true)
					atFlip.Store(claims.Load())
				}
				for i > k && !stopped.Load() {
					runtime.Gosched()
				}
			})
			m := 0
			for m < n && ran[m].Load() {
				m++
			}
			for i := m; i < n; i++ {
				if ran[i].Load() {
					t.Fatalf("workers=%d k=%d: index %d ran but %d did not", workers, k, i, m)
				}
			}
			if m <= k || m >= k+2*workers {
				t.Fatalf("workers=%d k=%d: ran [0, %d), want a prefix past k by less than %d", workers, k, m, 2*workers)
			}
			if c := claims.Load(); c != int64(m) {
				t.Fatalf("workers=%d k=%d: %d claims but %d indices ran", workers, k, c, m)
			}
			if late := int64(m) - atFlip.Load(); late >= int64(workers) {
				t.Fatalf("workers=%d k=%d: %d indices claimed after the flip, want fewer than %d", workers, k, late, workers)
			}
		}
	}
	for _, workers := range []int{2, 4} {
		var asks atomic.Int64
		ran := make([]atomic.Int32, 1000)
		sweep.Each(len(ran), workers, func() bool { return asks.Add(1) == 10 }, func(i int) { ran[i].Add(1) })
		for i := range ran {
			if c := ran[i].Load(); c != 1 {
				t.Fatalf("workers=%d: one worker told to stop, and index %d ran %d times", workers, i, c)
			}
		}
	}
}

// BenchmarkEachUtilization is the pool's micro-rung. It runs 2,000 tasks
// of about 50 µs of busy work on GOMAXPROCS workers and reports util, the
// tasks' time over the wall time times the workers (1 when no worker
// ever waits for an index), and ns/index, the pool's cost per index on
// empty tasks.
func BenchmarkEachUtilization(b *testing.B) {
	const tasks, work, empty = 2000, 50 * time.Microsecond, 100000
	workers := runtime.GOMAXPROCS(0)
	var busy atomic.Int64
	var wall, overhead time.Duration
	for range b.N {
		start := time.Now()
		sweep.Each(tasks, workers, nil, func(int) {
			t0 := time.Now()
			for time.Since(t0) < work {
			}
			busy.Add(int64(time.Since(t0)))
		})
		wall += time.Since(start)
		start = time.Now()
		sweep.Each(empty, workers, nil, func(int) {})
		overhead += time.Since(start)
	}
	b.ReportMetric(float64(busy.Load())/float64(wall)/float64(workers), "util")
	b.ReportMetric(float64(overhead)/float64(b.N*empty), "ns/index")
}
