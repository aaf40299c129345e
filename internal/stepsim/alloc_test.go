package stepsim_test

import (
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/sim"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
	"pckpt/internal/workload"
)

// quietPlatform has a realistic failure-rate prior, so the OCI yields
// many checkpoint cycles, but no failure or prediction inside the run:
// its replayed trace holds one failure at t = 1e9 s, past any run's end.
func quietPlatform(computeHours float64) platform.Config {
	return platform.Config{
		App:    workload.App{Name: "quiet-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: computeHours},
		System: failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48},
		Replay: &failure.Replay{
			Name:           "quiet",
			Nodes:          48,
			HorizonSeconds: 1e9,
			Events:         []failure.ReplayEvent{{T: 1e9, Node: 0}},
		},
	}
}

// TestStepCycleAllocsFlat pins the steady-state periodic cycle (compute
// interval, BB write, BB→PFS drain) as allocation-free: a warm run of a
// prepared cell allocates nothing, and neither does one eight times as
// long, with several times the checkpoints.
func TestStepCycleAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need the engine and record pools, which -race defeats")
	}
	const hours = 24
	for _, id := range stepModels {
		short, err := stepsim.Prepare(stepsim.Config{Model: id, Config: quietPlatform(hours)})
		if err != nil {
			t.Fatal(err)
		}
		long, err := stepsim.Prepare(stepsim.Config{Model: id, Config: quietPlatform(8 * hours)})
		if err != nil {
			t.Fatal(err)
		}
		rs, rl := short.Run(1, nil), long.Run(1, nil)
		if rs.Failures != 0 || rl.Failures != 0 {
			t.Fatalf("%v: quiet platform saw failures (%d, %d)", id, rs.Failures, rl.Failures)
		}
		if rl.Checkpoints < 2*rs.Checkpoints || rs.Checkpoints < 4 {
			t.Fatalf("%v: %d and %d checkpoints do not separate the cycle cost from the per-run cost",
				id, rs.Checkpoints, rl.Checkpoints)
		}
		as := testing.AllocsPerRun(20, func() { short.Run(1, nil) })
		al := testing.AllocsPerRun(20, func() { long.Run(1, nil) })
		if as != 0 || al != 0 {
			t.Errorf("%v: %.0f allocs for %d checkpoints and %.0f for %d, want 0 and 0",
				id, as, rs.Checkpoints, al, rl.Checkpoints)
		}
	}
}

// TestStepRunAllocsZero pins a warm step run as allocation-free: once
// the record and engine pools hold a record grown to a run's needs,
// whole runs of every model — failures, predictions, p-ckpt episodes,
// migrations, M1 safeguards, restart retries and injected faults
// included, which the test checks the runs exercised — allocate
// nothing, on a prepared cell.
func TestStepRunAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need the engine and record pools, which -race defeats")
	}
	plat := testPlatforms()["degraded"]
	var seen stats.RunResult
	for _, id := range stepModels {
		c, err := stepsim.Prepare(stepsim.Config{Model: id, Config: plat})
		if err != nil {
			t.Fatal(err)
		}
		runs := func() {
			for seed := uint64(1); seed <= 4; seed++ {
				r := c.Run(seed, nil)
				seen.Failures += r.Failures
				seen.Predicted += r.Predicted
				seen.ProactiveCkpts += r.ProactiveCkpts
				seen.Migrations += r.Migrations
				seen.RestartRetries += r.RestartRetries
				seen.PFSWriteFailures += r.PFSWriteFailures
				seen.BBWriteFailures += r.BBWriteFailures
				seen.Cascades += r.Cascades
			}
		}
		if allocs := testing.AllocsPerRun(5, runs); allocs != 0 {
			t.Errorf("%v: %.1f allocations per four warm runs, want 0", id, allocs)
		}
	}
	if seen.Failures == 0 || seen.Predicted == 0 || seen.ProactiveCkpts == 0 || seen.Migrations == 0 ||
		seen.RestartRetries == 0 || seen.PFSWriteFailures == 0 || seen.BBWriteFailures == 0 || seen.Cascades == 0 {
		t.Fatalf("the runs left a path unexercised: %+v", seen)
	}
}

// TestCellRunPrefixAllocs pins the failure-free prefix's allocations: a
// warm Cell.Run sweep, whose runs restart from the prefix, allocates
// nothing per run; recording the prefix costs at most one allocation per
// cell; and stepsim.Simulate, which runs its cell once, records nothing,
// so it stays at BenchmarkStepSimulatePOP's two allocations (the cell and
// its stream plan).
func TestCellRunPrefixAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need the engine and record pools, which -race defeats")
	}
	for _, id := range stepModels {
		cfg := stepsim.Config{Model: id, Config: titanPlatform(t, "POP", 1)}
		c := prepare(t, cfg)
		c.Run(1, nil)
		c.Run(2, nil)
		warm, seed := 0, uint64(3)
		sweep := func() {
			var credited uint64
			stepsim.RunCell(c, seed, nil, sim.RunEventBudget, &credited)
			if credited > 0 {
				warm++
			}
			seed++
		}
		if allocs := testing.AllocsPerRun(40, sweep); allocs != 0 {
			t.Errorf("%v: %.2f allocations per warm run, want 0", id, allocs)
		}
		if warm < 10 {
			t.Fatalf("%v: %d of 41 runs restarted from the prefix: the gate measured the full path", id, warm)
		}

		cells := make([]*stepsim.Cell, 9)
		for i := range cells {
			cells[i] = prepare(t, cfg)
			cells[i].Run(1, nil)
		}
		i := 0
		record := func() {
			cells[i].Run(2, nil)
			i++
		}
		if allocs := testing.AllocsPerRun(len(cells)-1, record); allocs > 1 {
			t.Errorf("%v: recording a prefix cost %.2f allocations per cell, want at most 1", id, allocs)
		}
		for _, c := range cells {
			if stepsim.PrefixSnapshots(c) != 4 {
				t.Fatalf("%v: a cell recorded %d snapshots, want 4", id, stepsim.PrefixSnapshots(c))
			}
		}
	}
	pop := stepsim.Config{Model: policy.B, Config: titanPlatform(t, "POP", 1)}
	seed := uint64(1)
	if allocs := testing.AllocsPerRun(20, func() { stepsim.Simulate(pop, seed); seed++ }); allocs > 2 {
		t.Errorf("stepsim.Simulate: %.1f allocations per call, want at most 2", allocs)
	}
}
