package stepsim_test

import (
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/platform"
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
// interval, BB write, BB→PFS drain) as allocation-free: a run eight
// times as long, with several times the checkpoints, allocates the same
// as the short one up to a small constant.
func TestStepCycleAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need the engine and cluster pools, which -race defeats")
	}
	const hours = 24
	for _, id := range stepModels {
		short := stepsim.Config{Model: id, Config: quietPlatform(hours)}
		long := stepsim.Config{Model: id, Config: quietPlatform(8 * hours)}
		rs, rl := stepsim.Simulate(short, 1), stepsim.Simulate(long, 1)
		if rs.Failures != 0 || rl.Failures != 0 {
			t.Fatalf("%v: quiet platform saw failures (%d, %d)", id, rs.Failures, rl.Failures)
		}
		if rl.Checkpoints < 2*rs.Checkpoints || rs.Checkpoints < 4 {
			t.Fatalf("%v: %d and %d checkpoints do not separate the cycle cost from the per-run cost",
				id, rs.Checkpoints, rl.Checkpoints)
		}
		as := testing.AllocsPerRun(20, func() { stepsim.Simulate(short, 1) })
		al := testing.AllocsPerRun(20, func() { stepsim.Simulate(long, 1) })
		if al > as+4 {
			t.Errorf("%v: %.0f allocs for %d checkpoints vs %.0f for %d: the cycle allocates",
				id, al, rl.Checkpoints, as, rs.Checkpoints)
		}
	}
}
