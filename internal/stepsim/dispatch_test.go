package stepsim_test

import (
	"fmt"
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

// Every step app, traced or not, arms its wake and its solo drains as
// engine alarms (sim.Alarm), which the engine dispatches in one
// (time, seq) order with its heap; its injector's next delivery waits on
// the heap. The tests below pin each run's Dispatched() count and
// watchdog trip at the values the same runs gave when all of those
// timers were heap events, so an alarm that is lost, fires twice or
// fires out of order moves a pin.
// (Their TestRunAhead names date from before alarms.) They also check
// that tracing and metering leave a run unchanged, and the per-run
// invariants (checkRun).

// nopRecorder is a trace recorder that keeps nothing.
type nopRecorder struct{}

func (nopRecorder) Record(trace.Event) {}

// runOn runs one app on its own engine, as Cell.Run does, metered into
// reg (nil runs unmetered), traced by nopRecorder or not, with the event
// watchdog armed at limit (0 = off). It returns the result and the
// engine's dispatch count.
func runOn(cfg stepsim.Config, reg *metrics.Registry, seed uint64, traced bool, limit uint64) (stats.RunResult, uint64) {
	if traced {
		cfg.Trace = nopRecorder{}
	}
	eng := sim.NewEngine()
	eng.SetWatchdog(limit, 0)
	h := startApp(eng, cfg, seed, stepsim.AppOptions{Metrics: reg})
	eng.RunAll()
	n := eng.Dispatched()
	eng.Release()
	res := h.Result()
	h.Release()
	return res, n
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

// equivalencePins are the Dispatched() counts of seeds 1–8 per platform
// and model in TestRunAheadEquivalence.
var equivalencePins = map[string][8]uint64{
	"clean/B":            {139, 139, 161, 191, 139, 139, 139, 139},
	"clean/M1":           {139, 139, 164, 200, 139, 139, 139, 139},
	"clean/M2":           {52, 52, 57, 77, 52, 52, 52, 52},
	"clean/P1":           {139, 139, 165, 204, 139, 139, 139, 139},
	"clean/P2":           {52, 52, 57, 77, 52, 52, 52, 52},
	"degraded/B":         {133, 138, 156, 189, 135, 132, 136, 136},
	"degraded/M1":        {133, 138, 158, 202, 135, 132, 136, 136},
	"degraded/M2":        {50, 52, 56, 74, 51, 49, 50, 51},
	"degraded/P1":        {133, 138, 160, 204, 135, 132, 136, 136},
	"degraded/P2":        {50, 52, 56, 74, 51, 49, 50, 51},
	"nested/B":           {209, 80, 170, 194, 172, 151, 131, 141},
	"nested/M1":          {194, 88, 145, 225, 190, 176, 139, 168},
	"nested/M2":          {142, 61, 151, 187, 141, 144, 131, 108},
	"nested/P1":          {197, 88, 150, 232, 206, 190, 154, 174},
	"nested/P2":          {134, 60, 101, 173, 152, 143, 135, 118},
	"replay/B":           {461, 461, 461, 461, 461, 461, 461, 461},
	"replay/M1":          {506, 506, 506, 506, 506, 506, 506, 506},
	"replay/M2":          {249, 249, 249, 249, 249, 249, 249, 249},
	"replay/P1":          {535, 535, 535, 535, 535, 535, 535, 535},
	"replay/P2":          {249, 249, 249, 249, 249, 249, 249, 249},
	"stretched-leads/B":  {139, 139, 161, 200, 139, 139, 139, 139},
	"stretched-leads/M1": {139, 139, 164, 203, 139, 139, 139, 139},
	"stretched-leads/M2": {52, 52, 57, 83, 52, 52, 52, 52},
	"stretched-leads/P1": {139, 139, 165, 207, 139, 139, 139, 139},
	"stretched-leads/P2": {52, 52, 57, 83, 52, 52, 52, 52},
}

// TestRunAheadEquivalence: for every model, platform and seed, a run
// dispatches its pinned number of events, traced or not and metered or
// not; tracing and metering change neither its RunResult nor its
// metrics, and the run keeps the per-run invariants. The nested
// platform adds interrupts inside BB writes, restart retries and
// cascades.
func TestRunAheadEquivalence(t *testing.T) {
	plats := testPlatforms()
	plats["nested"] = stepsim.NestedPlatform()
	for name, plat := range plats {
		plat := plat
		t.Run(name, func(t *testing.T) {
			for _, id := range stepModels {
				pins, ok := equivalencePins[name+"/"+id.String()]
				if !ok {
					t.Fatalf("no pins for %s/%v", name, id)
				}
				for seed := uint64(1); seed <= 8; seed++ {
					want := pins[seed-1]
					cfg := stepsim.Config{Model: id, Config: plat}
					ref, refN := runOn(cfg, nil, seed, true, 0)
					got, gotN := runOn(cfg, nil, seed, false, 0)
					if got != ref {
						t.Fatalf("%v seed %d: tracing changed the run\ntraced:   %+v\nuntraced: %+v", id, seed, ref, got)
					}
					if gotN != want || refN != want {
						t.Fatalf("%v seed %d: dispatched %d events untraced and %d traced, pinned %d", id, seed, gotN, refN, want)
					}
					checkRun(t, plat, got)

					refReg, gotReg := metrics.New(), metrics.New()
					ref, refN = runOn(cfg, refReg, seed, true, 0)
					got, gotN = runOn(cfg, gotReg, seed, false, 0)
					if got != ref {
						t.Fatalf("%v seed %d: tracing changed the metered run\ntraced:   %+v\nuntraced: %+v", id, seed, ref, got)
					}
					if gotN != want || refN != want {
						t.Fatalf("%v seed %d: metered runs dispatched %d and %d events, pinned %d", id, seed, gotN, refN, want)
					}
					if d := gotReg.Snapshot(got.WallSeconds).Diff(refReg.Snapshot(ref.WallSeconds)); d != "" {
						t.Fatalf("%v seed %d: untraced vs traced metrics: %s", id, seed, d)
					}
				}
			}
		})
	}
}

// TestRunAheadSharedEngine: two solo apps on one engine, the second
// admitted mid-run, interleave their alarms with each other's and with
// the heap: the engine dispatches the pinned 189 events, and tracing
// changes neither app's result.
func TestRunAheadSharedEngine(t *testing.T) {
	plat := testPlatforms()["degraded"]
	run := func(traced bool) (a, b stats.RunResult, n uint64) {
		ca, cb := stepsim.Config{Model: policy.P2, Config: plat}, stepsim.Config{Model: policy.M1, Config: plat}
		if traced {
			ca.Trace, cb.Trace = nopRecorder{}, nopRecorder{}
		}
		eng := sim.NewEngine()
		ha := startApp(eng, ca, 1, stepsim.AppOptions{})
		var hb *stepsim.AppHandle
		eng.After(12345.678, "", func() { hb = startApp(eng, cb, 2, stepsim.AppOptions{AppIndex: 1}) })
		eng.RunAll()
		n = eng.Dispatched()
		eng.Release()
		a, b = ha.Result(), hb.Result()
		ha.Release()
		hb.Release()
		return a, b, n
	}
	refA, refB, refN := run(true)
	gotA, gotB, gotN := run(false)
	if gotA != refA || gotB != refB {
		t.Fatalf("shared engine: tracing changed the runs\ntraced:   %+v | %+v\nuntraced: %+v | %+v", refA, refB, gotA, gotB)
	}
	if gotN != 189 || refN != 189 {
		t.Fatalf("shared engine: dispatched %d events untraced and %d traced, pinned 189", gotN, refN)
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
	runOn(cfg, nil, seed, traced, limit)
	return nil
}

// watchdogLimits are the event limits TestRunAheadWatchdog arms, and
// watchdogPins the trip each one gives per platform and model at seed 5
// (the zero trip: the run finished under the limit).
var (
	watchdogLimits = [8]uint64{1, 2, 3, 4, 7, 25, 60, 150}
	watchdogPins   = map[string][8]struct {
		events uint64
		now    float64
		name   string
	}{
		"clean/B":     {{2, 0, "injector"}, {3, 1807.1396299983012, "app"}, {4, 1816.6634395221108, "app"}, {5, 1820.2998031584746, "drain"}, {8, 3640.151763420426, "drain"}, {26, 14626.221096218615, "drain"}, {61, 36939.060245549306, "app"}, {}},
		"clean/M1":    {{2, 0, "injector"}, {3, 1807.1396299983012, "app"}, {4, 1816.6634395221108, "app"}, {5, 1820.2998031584746, "drain"}, {8, 3640.151763420426, "drain"}, {26, 14626.221096218615, "drain"}, {61, 36939.060245549306, "app"}, {}},
		"clean/M2":    {{2, 0, "injector"}, {3, 5059.942850386289, "app"}, {4, 5069.466659910098, "app"}, {5, 5073.103023546462, "drain"}, {8, 10167.443804712406, "drain"}, {26, 41255.848888208166, "drain"}, {}, {}},
		"clean/P1":    {{2, 0, "injector"}, {3, 1807.1396299983012, "app"}, {4, 1816.6634395221108, "app"}, {5, 1820.2998031584746, "drain"}, {8, 3640.151763420426, "drain"}, {26, 14626.221096218615, "drain"}, {61, 36939.060245549306, "app"}, {}},
		"clean/P2":    {{2, 0, "injector"}, {3, 5059.942850386289, "app"}, {4, 5069.466659910098, "app"}, {5, 5073.103023546462, "drain"}, {8, 10167.443804712406, "drain"}, {26, 41255.848888208166, "drain"}, {}, {}},
		"degraded/B":  {{2, 0, "injector"}, {3, 1807.1396299983012, "app"}, {4, 1816.6634395221108, "app"}, {5, 1820.2998031584746, "drain"}, {8, 3640.151763420426, "drain"}, {26, 16455.231848132957, "app"}, {61, 36942.69660918567, "drain"}, {}},
		"degraded/M1": {{2, 0, "injector"}, {3, 1807.1396299983012, "app"}, {4, 1816.6634395221108, "app"}, {5, 1820.2998031584746, "drain"}, {8, 3640.151763420426, "drain"}, {26, 16455.231848132957, "app"}, {61, 36942.69660918567, "drain"}, {}},
		"degraded/M2": {{2, 0, "injector"}, {3, 5059.942850386289, "app"}, {4, 5069.466659910098, "app"}, {5, 5073.103023546462, "drain"}, {8, 10167.443804712406, "drain"}, {26, 46511.150256315785, "app"}, {}, {}},
		"degraded/P1": {{2, 0, "injector"}, {3, 1807.1396299983012, "app"}, {4, 1816.6634395221108, "app"}, {5, 1820.2998031584746, "drain"}, {8, 3640.151763420426, "drain"}, {26, 16455.231848132957, "app"}, {61, 36942.69660918567, "drain"}, {}},
		"degraded/P2": {{2, 0, "injector"}, {3, 5059.942850386289, "app"}, {4, 5069.466659910098, "app"}, {5, 5073.103023546462, "drain"}, {8, 10167.443804712406, "drain"}, {26, 46511.150256315785, "app"}, {}, {}},
	}
)

// TestRunAheadWatchdog: alarms count against the event watchdog like
// heap events, so every limit trips at its pinned event, time and name,
// traced or not.
func TestRunAheadWatchdog(t *testing.T) {
	tripped := 0
	for _, name := range []string{"clean", "degraded"} {
		plat := testPlatforms()[name]
		for _, id := range stepModels {
			cfg := stepsim.Config{Model: id, Config: plat}
			pins, ok := watchdogPins[name+"/"+id.String()]
			if !ok {
				t.Fatalf("no pins for %s/%v", name, id)
			}
			for i, limit := range watchdogLimits {
				pin := pins[i]
				for _, traced := range []bool{false, true} {
					got := watchdogTrip(t, cfg, 5, traced, limit)
					if pin.events == 0 {
						if got != nil {
							t.Fatalf("%s %v limit %d traced=%v: tripped %+v, pinned to finish", name, id, limit, traced, got)
						}
						continue
					}
					if want := (sim.WatchdogError{Reason: "event limit", Events: pin.events, Now: pin.now, Name: pin.name}); got == nil || *got != want {
						t.Fatalf("%s %v limit %d traced=%v: tripped %+v, pinned %+v", name, id, limit, traced, got, want)
					}
				}
				if pin.events != 0 {
					tripped++
				}
			}
		}
	}
	if tripped < 60 {
		t.Fatalf("only %d of 80 limits tripped: the limits are too loose to compare trips", tripped)
	}
}

// TestRunAheadHorizon: Run(T) stops before alarms past T too. An app
// driven to a mid-run horizon and aborted there reports WallSeconds ==
// T, Run returns T, and tracing does not change the partial accounting.
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
			h := startApp(eng, c, 3, stepsim.AppOptions{})
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
			t.Fatalf("%v: tracing changed the partial run\ntraced:   %+v\nuntraced: %+v", id, ref, got)
		}
	}
}

// overlapPins are the Dispatched() counts of seeds 1–3 per platform and
// model in TestRunAheadOverlappingDrains.
var overlapPins = map[string][3]uint64{
	"quiet=true/B":   {121, 121, 121},
	"quiet=true/M1":  {121, 121, 121},
	"quiet=true/M2":  {61, 61, 61},
	"quiet=true/P1":  {121, 121, 121},
	"quiet=true/P2":  {61, 61, 61},
	"quiet=false/B":  {400, 388, 428},
	"quiet=false/M1": {380, 268, 325},
	"quiet=false/M2": {180, 161, 183},
	"quiet=false/P1": {403, 284, 340},
	"quiet=false/P2": {181, 168, 181},
}

// TestRunAheadOverlappingDrains: overlapping drains, each its frame's
// own alarm, dispatch the pinned number of events and keep the per-run
// invariants; tracing changes neither result nor metrics, and the
// metered drain depth shows two or more in flight.
func TestRunAheadOverlappingDrains(t *testing.T) {
	for _, quiet := range []bool{true, false} {
		plat := overlapPlatform(quiet)
		for _, id := range stepModels {
			pins, ok := overlapPins[fmt.Sprintf("quiet=%v/%v", quiet, id)]
			if !ok {
				t.Fatalf("no pins for quiet=%v/%v", quiet, id)
			}
			for seed := uint64(1); seed <= 3; seed++ {
				refReg, gotReg := metrics.New(), metrics.New()
				ref, refN := runOn(stepsim.Config{Model: id, Config: plat}, refReg, seed, true, 0)
				got, gotN := runOn(stepsim.Config{Model: id, Config: plat}, gotReg, seed, false, 0)
				if got != ref {
					t.Fatalf("quiet=%v %v seed %d: tracing changed the run\ntraced:   %+v\nuntraced: %+v", quiet, id, seed, ref, got)
				}
				if want := pins[seed-1]; gotN != want || refN != want {
					t.Fatalf("quiet=%v %v seed %d: dispatched %d events untraced and %d traced, pinned %d", quiet, id, seed, gotN, refN, want)
				}
				checkRun(t, plat, got)
				snap := gotReg.Snapshot(got.WallSeconds)
				if d := snap.Diff(refReg.Snapshot(ref.WallSeconds)); d != "" {
					t.Fatalf("quiet=%v %v seed %d: untraced vs traced metrics: %s", quiet, id, seed, d)
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
