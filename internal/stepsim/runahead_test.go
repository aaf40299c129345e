package stepsim_test

import (
	"strings"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/iomodel"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/sim"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
	"pckpt/internal/trace"
	"pckpt/internal/workload"
)

// A solo app (no arbiter, no trace recorder) runs ahead: it holds its
// own wake and drain timers off the event heap and dispatches them in
// line while they precede every queued event. A traced app keeps the
// heap path, so attaching nopRecorder, which records nothing and
// changes nothing the run computes, selects the reference path. The
// tests below hold the two paths equal: same RunResult, same
// Dispatched(), same metrics snapshot, same watchdog trips, same
// horizon.

// nopRecorder is a trace recorder that keeps nothing.
type nopRecorder struct{}

func (nopRecorder) Record(trace.Event) {}

// runOn runs one app on its own engine, as Simulate does, on the
// heap path (traced) or the run-ahead path, with the event watchdog
// armed at limit (0 = off). It returns the result and the engine's
// dispatch count.
func runOn(cfg stepsim.Config, seed uint64, traced bool, limit uint64) (stats.RunResult, uint64) {
	if traced {
		cfg.Trace = nopRecorder{}
	}
	eng := sim.NewEngine()
	eng.SetWatchdog(limit, 0)
	h := stepsim.StartApp(eng, cfg, seed, stepsim.AppOptions{})
	eng.RunAll()
	n := eng.Dispatched()
	eng.Release()
	h.Release()
	return h.Result(), n
}

// overlapPlatform drains one node at a time (DrainConcurrency 1), so a
// BB→PFS drain (~698 s) outlasts a compute interval plus a BB write
// (~286 s, or ~589 s with M2/P2's σ, plus 38 s at this failure-rate
// prior) and drains overlap. quiet replays a trace whose only failure
// lies past the run, so the cycle runs uninterrupted; otherwise
// failures arrive at the prior's rate.
func overlapPlatform(quiet bool) platform.Config {
	io := iomodel.DefaultSummit()
	io.DrainConcurrency = 1
	c := platform.Config{
		App:    workload.App{Name: "overlap-48", Nodes: 48, TotalCkptGB: 3840, ComputeHours: 6},
		System: failure.System{Name: "hostile", Shape: 0.75, ScaleHours: 0.25, Nodes: 48},
		IO:     iomodel.New(io),
	}
	if quiet {
		c.Replay = &failure.Replay{
			Name:           "quiet",
			Nodes:          48,
			HorizonSeconds: 1e9,
			Events:         []failure.ReplayEvent{{T: 1e9, Node: 0}},
		}
	}
	return c
}

// TestRunAheadEquivalence: for every model, platform and seed, the
// run-ahead path gives the heap path's RunResult and Dispatched() count
// — so every event it dispatched in line is one the engine would have
// popped — and keeps the per-run invariants; metered, it records the
// same snapshot. The nested platform adds interrupts inside BB writes,
// restart retries and cascades.
func TestRunAheadEquivalence(t *testing.T) {
	plats := testPlatforms()
	plats["nested"] = stepsim.NestedPlatform()
	for name, plat := range plats {
		plat := plat
		t.Run(name, func(t *testing.T) {
			for _, id := range stepModels {
				for seed := uint64(1); seed <= 8; seed++ {
					cfg := stepsim.Config{Model: id, Config: plat}
					ref, refN := runOn(cfg, seed, true, 0)
					got, gotN := runOn(cfg, seed, false, 0)
					if got != ref || gotN != refN {
						t.Fatalf("%v seed %d: run-ahead diverged from the heap path\nheap:      %+v (%d events)\nrun-ahead: %+v (%d events)",
							id, seed, ref, refN, got, gotN)
					}
					checkRun(t, plat, got)

					refReg, gotReg := metrics.New(), metrics.New()
					cfg.Metrics = refReg
					ref, _ = runOn(cfg, seed, true, 0)
					cfg.Metrics = gotReg
					got, _ = runOn(cfg, seed, false, 0)
					if got != ref {
						t.Fatalf("%v seed %d: metered run-ahead diverged\nheap:      %+v\nrun-ahead: %+v", id, seed, ref, got)
					}
					if d := gotReg.Snapshot(got.WallSeconds).Diff(refReg.Snapshot(ref.WallSeconds)); d != "" {
						t.Fatalf("%v seed %d: run-ahead vs heap metrics: %s", id, seed, d)
					}
				}
			}
		})
	}
}

// TestRunAheadSharedEngine: two solo apps on one engine, the second
// admitted mid-run, interleave exactly as on the heap path: each app's
// in-line dispatch stops at the other's queued events.
func TestRunAheadSharedEngine(t *testing.T) {
	plat := testPlatforms()["degraded"]
	run := func(traced bool) (a, b stats.RunResult, n uint64) {
		ca, cb := stepsim.Config{Model: policy.P2, Config: plat}, stepsim.Config{Model: policy.M1, Config: plat}
		if traced {
			ca.Trace, cb.Trace = nopRecorder{}, nopRecorder{}
		}
		eng := sim.NewEngine()
		ha := stepsim.StartApp(eng, ca, 1, stepsim.AppOptions{})
		var hb *stepsim.AppHandle
		eng.After(12345.678, "", func() { hb = stepsim.StartApp(eng, cb, 2, stepsim.AppOptions{AppIndex: 1}) })
		eng.RunAll()
		n = eng.Dispatched()
		eng.Release()
		ha.Release()
		hb.Release()
		return ha.Result(), hb.Result(), n
	}
	refA, refB, refN := run(true)
	gotA, gotB, gotN := run(false)
	if gotA != refA || gotB != refB || gotN != refN {
		t.Fatalf("shared engine: run-ahead diverged (%d vs %d events)\nheap:      %+v | %+v\nrun-ahead: %+v | %+v",
			gotN, refN, refA, refB, gotA, gotB)
	}
}

// watchdogTrip runs like runOn and returns the watchdog's panic value,
// or nil if the run finished under the limit.
func watchdogTrip(t *testing.T, cfg stepsim.Config, seed uint64, traced bool, limit uint64) (trip *sim.WatchdogError) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			w, ok := v.(*sim.WatchdogError)
			if !ok {
				panic(v)
			}
			trip = w
		}
	}()
	runOn(cfg, seed, traced, limit)
	return nil
}

// TestRunAheadWatchdog: in-line dispatches count against the event
// watchdog exactly like popped events, so both paths trip at the same
// event, time and name.
func TestRunAheadWatchdog(t *testing.T) {
	tripped := 0
	for _, name := range []string{"clean", "degraded"} {
		plat := testPlatforms()[name]
		for _, id := range stepModels {
			cfg := stepsim.Config{Model: id, Config: plat}
			for _, limit := range []uint64{1, 2, 3, 4, 7, 25, 60, 150} {
				ref := watchdogTrip(t, cfg, 5, true, limit)
				got := watchdogTrip(t, cfg, 5, false, limit)
				if (ref == nil) != (got == nil) || ref != nil && *ref != *got {
					t.Fatalf("%s %v limit %d: heap path tripped %+v, run-ahead %+v", name, id, limit, ref, got)
				}
				if ref != nil {
					tripped++
				}
			}
		}
	}
	if tripped < 60 {
		t.Fatalf("only %d of 80 limits tripped: the limits are too loose to compare trips", tripped)
	}
}

// TestRunAheadHorizon: Run(T) bounds in-line dispatch too. An app driven
// to a mid-run horizon and aborted there reports WallSeconds == T, Run
// returns T, and the partial accounting equals the heap path's.
func TestRunAheadHorizon(t *testing.T) {
	plat := testPlatforms()["clean"]
	for _, id := range stepModels {
		cfg := stepsim.Config{Model: id, Config: plat}
		horizon := stepsim.Simulate(cfg, 3).WallSeconds / 3
		abortAt := func(traced bool) stats.RunResult {
			c := cfg
			if traced {
				c.Trace = nopRecorder{}
			}
			eng := sim.NewEngine()
			h := stepsim.StartApp(eng, c, 3, stepsim.AppOptions{})
			if got := eng.Run(horizon); got != horizon {
				t.Fatalf("%v: Run(%v) = %v", id, horizon, got)
			}
			r := h.Abort()
			eng.RunAll()
			eng.Release()
			h.Release()
			return r
		}
		got, ref := abortAt(false), abortAt(true)
		if !got.Truncated || got.WallSeconds != horizon {
			t.Fatalf("%v: aborted at the horizon %v, got truncated=%v wall %v", id, horizon, got.Truncated, got.WallSeconds)
		}
		if got != ref {
			t.Fatalf("%v: partial run differs\nheap:      %+v\nrun-ahead: %+v", id, ref, got)
		}
	}
}

// TestRunAheadOverlappingDrains: drains that overlap stay FIFO in the
// held queue and still match the heap path, metrics and per-run
// invariants included; the metered drain depth shows two or more in
// flight.
func TestRunAheadOverlappingDrains(t *testing.T) {
	for _, quiet := range []bool{true, false} {
		plat := overlapPlatform(quiet)
		for _, id := range stepModels {
			for seed := uint64(1); seed <= 3; seed++ {
				refReg, gotReg := metrics.New(), metrics.New()
				ref, refN := runOn(stepsim.Config{Model: id, Config: plat, Metrics: refReg}, seed, true, 0)
				got, gotN := runOn(stepsim.Config{Model: id, Config: plat, Metrics: gotReg}, seed, false, 0)
				if got != ref || gotN != refN {
					t.Fatalf("quiet=%v %v seed %d: run-ahead diverged\nheap:      %+v (%d events)\nrun-ahead: %+v (%d events)",
						quiet, id, seed, ref, refN, got, gotN)
				}
				checkRun(t, plat, got)
				snap := gotReg.Snapshot(got.WallSeconds)
				if d := snap.Diff(refReg.Snapshot(ref.WallSeconds)); d != "" {
					t.Fatalf("quiet=%v %v seed %d: run-ahead vs heap metrics: %s", quiet, id, seed, d)
				}
				depth := -1.0
				for name, g := range snap.Gauges {
					if strings.HasSuffix(name, ".drain_queue_depth") {
						depth = g.Max
					}
				}
				if depth < 2 {
					t.Fatalf("quiet=%v %v seed %d: drain depth peaked at %v, want overlapping drains", quiet, id, seed, depth)
				}
			}
		}
	}
}
