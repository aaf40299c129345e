package stepsim_test

import (
	"testing"

	"pckpt/internal/machine"
	"pckpt/internal/policy"
	"pckpt/internal/sim"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
	"pckpt/internal/trace"
)

// Abort kills a running app mid-flight: the partial run carries the
// truncated marker and the abort-time wall clock, the engine drains
// without the app scheduling further work, and the accounting is frozen
// at the abort instant.
func TestAppAbortTruncatesMidFlight(t *testing.T) {
	for name, plat := range testPlatforms() {
		plat := plat
		t.Run(name, func(t *testing.T) {
			for _, id := range stepModels {
				for seed := uint64(1); seed <= 3; seed++ {
					solo := stepsim.Simulate(stepsim.Config{Model: id, Config: plat}, seed)
					cut := solo.WallSeconds / 2
					eng := sim.NewEngine()
					h := startApp(eng, stepsim.Config{Model: id, Config: plat}, seed, stepsim.AppOptions{})
					var partial = struct {
						res  bool
						wall float64
					}{}
					eng.After(cut, "", func() {
						r := h.Abort()
						partial.res = r.Truncated
						partial.wall = r.WallSeconds
					})
					eng.RunAll()
					eng.Release()
					if !h.Done() {
						t.Fatalf("%v seed %d: aborted app not Done", id, seed)
					}
					if !partial.res {
						t.Fatalf("%v seed %d: aborted run not marked truncated", id, seed)
					}
					if partial.wall != cut {
						t.Fatalf("%v seed %d: aborted wall %g, want the abort instant %g", id, seed, partial.wall, cut)
					}
					final := h.Result()
					if !final.Truncated || final.WallSeconds != cut {
						t.Fatalf("%v seed %d: post-drain result (trunc=%v wall=%g) moved past the abort (want trunc at %g)",
							id, seed, final.Truncated, final.WallSeconds, cut)
					}
					if final.WallSeconds >= solo.WallSeconds {
						t.Fatalf("%v seed %d: aborted wall %g not shorter than solo wall %g", id, seed, final.WallSeconds, solo.WallSeconds)
					}
				}
			}
		})
	}
}

// Aborting a finished app is a no-op returning the final result.
func TestAppAbortAfterCompletionIsNoop(t *testing.T) {
	plat := testPlatforms()["clean"]
	for _, id := range stepModels {
		solo := stepsim.Simulate(stepsim.Config{Model: id, Config: plat}, 2)
		eng := sim.NewEngine()
		h := startApp(eng, stepsim.Config{Model: id, Config: plat}, 2, stepsim.AppOptions{})
		eng.RunAll()
		got := h.Abort()
		eng.Release()
		if got != solo {
			t.Fatalf("%v: Abort after completion returned a different result\nsolo:  %+v\nabort: %+v", id, solo, got)
		}
		if got.Truncated != solo.Truncated {
			t.Fatalf("%v: post-completion Abort flipped the truncated marker", id)
		}
	}
}

// TestAppAbortMidRecoveryOnMachine aborts a tenant of a shared machine
// while it is parked in a post-failure recovery — often nested inside an
// interrupted BB write, with drains in flight at the arbiter — next to a
// second tenant. The cut points are read off an unaborted run's
// timeline. The aborted run must end truncated at the abort instant with
// its accounting frozen there (no continuation of the dead app runs
// after Abort), and the other tenant must still complete.
func TestAppAbortMidRecoveryOnMachine(t *testing.T) {
	cfg := stepsim.Config{Model: policy.P2, Config: stepsim.NestedPlatform()}
	run := func(seed uint64, cut float64, tr trace.Recorder) (victim, other *stepsim.AppHandle, aborted stats.RunResult) {
		eng := sim.NewEngine()
		arb := machine.NewBandwidthArbiter(eng, 2500, 4, 2)
		traced := cfg
		traced.Trace = tr
		victim = startApp(eng, traced, seed, stepsim.AppOptions{Arbiter: arb, AppIndex: 0})
		other = startApp(eng, cfg, seed+100, stepsim.AppOptions{Arbiter: arb, AppIndex: 1})
		if cut > 0 {
			eng.After(cut, "", func() { aborted = victim.Abort() })
		}
		eng.RunAll()
		eng.Release()
		return victim, other, aborted
	}
	cuts := 0
	for seed := uint64(1); seed <= 4; seed++ {
		var tl trace.Buffer
		run(seed, 0, &tl)
		failedAt := -1.0
		for _, ev := range tl.Events() {
			switch ev.Kind {
			case trace.Failure:
				failedAt = ev.T
			case trace.RecoveryDone:
				if failedAt < 0 || ev.T <= failedAt {
					continue
				}
				cut := (failedAt + ev.T) / 2
				failedAt = -1
				cuts++
				victim, other, aborted := run(seed, cut, nil)
				if !aborted.Truncated || aborted.WallSeconds != cut {
					t.Fatalf("seed %d cut %g: Abort returned trunc=%v wall=%g", seed, cut, aborted.Truncated, aborted.WallSeconds)
				}
				if !victim.Done() || victim.Result() != aborted {
					t.Fatalf("seed %d cut %g: accounting moved after Abort\nabort: %+v\nfinal: %+v", seed, cut, aborted, victim.Result())
				}
				if !other.Done() || other.Result().Truncated {
					t.Fatalf("seed %d cut %g: the other tenant did not complete: %+v", seed, cut, other.Result())
				}
			}
		}
	}
	if cuts == 0 {
		t.Fatal("no recovery on the timeline: the mid-recovery abort path never executed")
	}
}
