package stepsim_test

import (
	"fmt"
	"sync"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/sim"
	"pckpt/internal/stepsim"
	"pckpt/internal/sweep"
	"pckpt/internal/workload"
)

// The tests below hold runs that restart from their cell's failure-free
// prefix to the full path: a run of the same seed on a fresh record that
// never restarts (stepsim.RunFresh). A restart must leave the RunResult,
// bit for bit, and the engine's Dispatched() count as the full path has
// them, and trip the watchdog at the same event.

// prefixApps are the applications of the equivalence matrix; VULCAN's
// runs dispatch about 13,000 events, so it runs fewer seeds.
var prefixApps = []string{"CHIMERA", "XGC", "POP", "S3D", "GYRO", "VULCAN"}

// titanPlatform is the Fig. 4 sweep's platform for app at a lead scale.
func titanPlatform(t testing.TB, app string, scale float64) platform.Config {
	a, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	return platform.Config{App: a, System: failure.Titan, LeadScale: scale, FNRate: failure.DefaultFNRate}
}

// matchFullPath runs seed through the cell's restarting path and the full
// path with the event watchdog at budget and fails on any difference,
// watchdog trips included. It returns the dispatches the run credited.
func matchFullPath(t *testing.T, name string, c *stepsim.Cell, seed, budget uint64) uint64 {
	t.Helper()
	type outcome struct {
		res        string
		dispatched uint64
		trip       *sim.WatchdogError
	}
	var credited uint64
	run := func(warm bool) (o outcome) {
		defer func() {
			if v := recover(); v != nil {
				w, ok := v.(*sim.WatchdogError)
				if !ok {
					t.Fatalf("%s seed %d (restarting=%v): panic %v", name, seed, warm, v)
				}
				o.trip = w
			}
		}()
		if warm {
			res, n := stepsim.RunCell(c, seed, nil, budget, &credited)
			return outcome{res: fmt.Sprintf("%+v", res), dispatched: n}
		}
		res, n := stepsim.RunFresh(c, seed, nil, budget)
		return outcome{res: fmt.Sprintf("%+v", res), dispatched: n}
	}
	got, want := run(true), run(false)
	switch {
	case (got.trip == nil) != (want.trip == nil) || got.trip != nil && *got.trip != *want.trip:
		t.Fatalf("%s seed %d: watchdog trip %+v, full path %+v", name, seed, got.trip, want.trip)
	case got != want && got.trip == nil:
		t.Fatalf("%s seed %d (credited %d): restarted run diverged from the full path\nrestart: %d dispatched, %s\nfull:    %d dispatched, %s",
			name, seed, credited, got.dispatched, got.res, want.dispatched, want.res)
	}
	return credited
}

// TestWarmStartMatchesFullPath: on every application, model and lead
// scale, each seed of a cell's sweep — after the cell's first run, so
// the prefix is recorded — matches the full path, and a set share of the
// runs restart, so a silently disabled restart fails.
func TestWarmStartMatchesFullPath(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	runs, warm := 0, 0
	for _, app := range prefixApps {
		n := seeds
		if app == "VULCAN" {
			n = max(seeds/4, 1)
		}
		for _, scale := range []float64{0.5, 1, 1.5} {
			plat := titanPlatform(t, app, scale)
			for _, id := range stepModels {
				name := fmt.Sprintf("%s/%v/ls=%g", app, id, scale)
				c := prepare(t, stepsim.Config{Model: id, Config: plat})
				c.Run(sweep.Seed(42, 0), nil)
				for i := 1; i <= n; i++ {
					if matchFullPath(t, name, c, sweep.Seed(42, i), sim.RunEventBudget) > 0 {
						warm++
					}
					runs++
				}
				if stepsim.PrefixSnapshots(c) != 4 {
					t.Errorf("%s: the cell recorded %d snapshots, want 4", name, stepsim.PrefixSnapshots(c))
				}
			}
		}
	}
	if warm*10 < runs*4 {
		t.Fatalf("%d of %d runs restarted from their cell's prefix, want at least 40 %%", warm, runs)
	}
	t.Logf("%d of %d runs restarted from their cell's prefix", warm, runs)
}

// quietReplay replays a trace whose only failure, at t, lies past every
// run on the platform when t is large, so a run restarts from its cell's
// last snapshot; a failure at t = 0 leaves nothing to restart past.
func quietReplay(plat platform.Config, t float64) platform.Config {
	plat.Replay = &failure.Replay{
		Name:           "quiet",
		Nodes:          plat.App.Nodes,
		HorizonSeconds: max(t, 1e9),
		Events:         []failure.ReplayEvent{{T: t, Node: 0}},
	}
	return plat
}

// TestWarmStartFromLastSnapshot: a run whose only failure lies past its
// end restarts from the cell's last snapshot and matches the full path;
// every seed credits the same dispatches.
func TestWarmStartFromLastSnapshot(t *testing.T) {
	for _, app := range []string{"XGC", "POP"} {
		for _, id := range stepModels {
			name := fmt.Sprintf("%s/%v", app, id)
			c := prepare(t, stepsim.Config{Model: id, Config: quietReplay(titanPlatform(t, app, 1), 1e9)})
			c.Run(1, nil)
			first := uint64(0)
			for seed := uint64(2); seed <= 4; seed++ {
				cr := matchFullPath(t, name, c, seed, sim.RunEventBudget)
				if first == 0 {
					first = cr
				}
				if cr == 0 || cr != first {
					t.Fatalf("%s seed %d: credited %d, want the last snapshot's %d (> 0)", name, seed, cr, first)
				}
			}
		}
	}
}

// TestWarmStartNotAtTimeZero: a failure at t = 0 reaches the run before
// any snapshot, so no run restarts, and each matches the full path.
func TestWarmStartNotAtTimeZero(t *testing.T) {
	for _, id := range stepModels {
		name := fmt.Sprintf("POP/%v", id)
		c := prepare(t, stepsim.Config{Model: id, Config: quietReplay(titanPlatform(t, "POP", 1), 0)})
		c.Run(1, nil)
		for seed := uint64(2); seed <= 4; seed++ {
			if cr := matchFullPath(t, name, c, seed, sim.RunEventBudget); cr != 0 {
				t.Fatalf("%s seed %d: a run failing at t = 0 credited %d dispatches", name, seed, cr)
			}
		}
		if stepsim.PrefixSnapshots(c) != 4 {
			t.Fatalf("%s: recorded %d snapshots, want 4", name, stepsim.PrefixSnapshots(c))
		}
	}
}

// TestWarmStartRefusedCredit: with the event watchdog armed below the
// dispatches a restart would credit, the engine refuses the credit and
// the run trips at the full path's event, time and name; armed exactly
// at the credit, the restart goes ahead and trips at the next event, as
// the full path does.
func TestWarmStartRefusedCredit(t *testing.T) {
	for _, id := range stepModels {
		name := fmt.Sprintf("POP/%v", id)
		c := prepare(t, stepsim.Config{Model: id, Config: quietReplay(titanPlatform(t, "POP", 1), 1e9)})
		c.Run(1, nil)
		var credit uint64
		_, total := stepsim.RunCell(c, 2, nil, sim.RunEventBudget, &credit)
		if credit == 0 {
			t.Fatalf("%s: the quiet run did not restart", name)
		}
		// The app's start and the injector's start precede the credit.
		for _, limit := range []uint64{credit / 2, credit + 1, credit + 2, credit + 3} {
			cr := matchFullPath(t, name, c, 3, limit)
			if want := limit >= credit+2; (cr > 0) != want {
				t.Fatalf("%s limit %d: credited %d, want a restart %v (credit %d, %d dispatched in all)", name, limit, cr, want, credit, total)
			}
		}
	}
}

// TestWarmStartOnlyQuietSoloRuns: metered runs, traced cells, cells with
// a fault plan and apps started on a caller's engine never restart, and
// still match the full path.
func TestWarmStartOnlyQuietSoloRuns(t *testing.T) {
	plat := titanPlatform(t, "POP", 1)
	for _, id := range stepModels {
		c := prepare(t, stepsim.Config{Model: id, Config: plat})
		for seed := uint64(1); seed <= 3; seed++ {
			var cr uint64
			if stepsim.RunCell(c, seed, metrics.New(), sim.RunEventBudget, &cr); cr != 0 {
				t.Fatalf("%v: a metered run restarted", id)
			}
		}
		if stepsim.PrefixSnapshots(c) != 0 {
			t.Fatalf("%v: metered runs recorded a prefix", id)
		}
		traced := prepare(t, stepsim.Config{Model: id, Config: plat, Trace: nopRecorder{}})
		faulted := plat
		faulted.Faults = testPlatforms()["degraded"].Faults
		armed := prepare(t, stepsim.Config{Model: id, Config: faulted})
		for _, cc := range []struct {
			name string
			c    *stepsim.Cell
		}{{"traced", traced}, {"fault-armed", armed}} {
			for seed := uint64(1); seed <= 3; seed++ {
				if cr := matchFullPath(t, fmt.Sprintf("%s/%v", cc.name, id), cc.c, seed, sim.RunEventBudget); cr != 0 {
					t.Fatalf("%s %v: seed %d restarted", cc.name, id, seed)
				}
			}
			if stepsim.PrefixSnapshots(cc.c) != 0 {
				t.Fatalf("%s %v: recorded a prefix", cc.name, id)
			}
		}
		// A cell with a recorded prefix still starts shared-engine apps in
		// full: the caller drives that engine and may act meanwhile.
		for seed := uint64(1); seed <= 3; seed++ {
			c.Run(seed, nil)
		}
		if stepsim.PrefixSnapshots(c) == 0 {
			t.Fatalf("%v: no prefix recorded", id)
		}
		for seed := uint64(4); seed <= 6; seed++ {
			eng := sim.NewEngine()
			h := c.Start(eng, seed, stepsim.AppOptions{})
			eng.RunAll()
			n, cr, res := eng.Dispatched(), stepsim.Credited(h), h.Result()
			eng.Release()
			h.Release()
			want, wantN := stepsim.RunFresh(c, seed, nil, sim.RunEventBudget)
			if cr != 0 || res != want || n != wantN {
				t.Fatalf("%v seed %d: a started app credited %d and dispatched %d (full path %d)\ngot:  %+v\nwant: %+v", id, seed, cr, n, wantN, res, want)
			}
		}
	}
}

// TestOverlappingDrainsRecordNothing: a cell whose drains always overlap
// passes no canonical point, so it records no snapshot and its runs go
// the full path. Eight times overlapPlatform's checkpoint keeps a drain
// longer than a cycle to the end of the run, as the OCI grows.
func TestOverlappingDrainsRecordNothing(t *testing.T) {
	plat := overlapPlatform(true)
	plat.App.TotalCkptGB *= 8
	for _, id := range stepModels {
		c := prepare(t, stepsim.Config{Model: id, Config: plat})
		for seed := uint64(1); seed <= 3; seed++ {
			if cr := matchFullPath(t, fmt.Sprintf("overlap/%v", id), c, seed, sim.RunEventBudget); cr != 0 {
				t.Fatalf("%v seed %d: restarted with overlapping drains", id, seed)
			}
		}
		if n := stepsim.PrefixSnapshots(c); n != 0 {
			t.Fatalf("%v: recorded %d snapshots with overlapping drains", id, n)
		}
	}
}

// TestCellPrefixConcurrentFirstRuns starts a fresh cell's first runs on
// four goroutines at once: one of them records the prefix while the
// others wait for it, and every run matches the full path. make
// race-pool runs it ten times under the race detector.
func TestCellPrefixConcurrentFirstRuns(t *testing.T) {
	for _, app := range []string{"XGC", "POP"} {
		for _, id := range stepModels {
			c := prepare(t, stepsim.Config{Model: id, Config: titanPlatform(t, app, 1)})
			var wg sync.WaitGroup
			got := make([]string, 4)
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[g] = fmt.Sprintf("%+v", c.Run(uint64(g+1), nil))
				}()
			}
			wg.Wait()
			for g := range got {
				want, _ := stepsim.RunFresh(c, uint64(g+1), nil, sim.RunEventBudget)
				if got[g] != fmt.Sprintf("%+v", want) {
					t.Fatalf("%s/%v seed %d: concurrent first run diverged\ngot:  %s\nwant: %+v", app, id, g+1, got[g], want)
				}
			}
			if stepsim.PrefixSnapshots(c) != 4 {
				t.Fatalf("%s/%v: recorded %d snapshots, want 4", app, id, stepsim.PrefixSnapshots(c))
			}
		}
	}
}
