package sweep_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

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
// allocation each, and the workers pull indices off one channel.
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
