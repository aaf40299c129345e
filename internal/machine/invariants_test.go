package machine_test

import (
	"fmt"
	"testing"

	"pckpt/internal/machine"
	"pckpt/internal/scenario"
	"pckpt/internal/stepsim"
	"pckpt/internal/sweep"
)

// checkMachineRun holds one machine run of cfg from seed to the per-run
// invariants: every tenant run passes stepsim.CheckRun (a truncated
// tenant, a give-up, skips only the wall identity, as CheckRun defines),
// and each solo baseline, rerun on its own, passes it too and matches the
// wall time the machine divided by.
func checkMachineRun(cfg machine.Config, seed uint64, res machine.Result) error {
	for i, jr := range res.Jobs {
		job := cfg.Jobs[i]
		if err := stepsim.CheckRun(job.Platform, jr.Run); err != nil {
			return fmt.Errorf("tenant %d (%v): %w", i, job.Model, err)
		}
		solo := stepsim.Simulate(stepsim.Config{Model: job.Model, Config: job.Platform}, sweep.Seed(seed, i))
		if err := stepsim.CheckRun(job.Platform, solo); err != nil {
			return fmt.Errorf("solo baseline %d (%v): %w", i, job.Model, err)
		}
		if solo.WallSeconds != jr.SoloWallSeconds {
			return fmt.Errorf("job %d: solo baseline wall %v, the machine divided by %v", i, solo.WallSeconds, jr.SoloWallSeconds)
		}
	}
	return nil
}

// TestMachineRunsKeepInvariants holds every tenant run and every solo
// baseline of both example machine specs to checkMachineRun, over 300
// seeds each, simulated one after another so every tenant after the
// first starts on a recycled run record: a record that leaked state from
// an earlier tenant, a crashed one's included, would break an overhead
// identity. The conservation probe watches every repricing of every run:
// the total allocation stays between zero and the instantaneous ceiling.
func TestMachineRunsKeepInvariants(t *testing.T) {
	for _, name := range []string{"machine-degraded", "machine-contended"} {
		spec, err := scenario.Load("../../examples/scenarios/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := spec.MachineConfig()
		if err != nil {
			t.Fatal(err)
		}
		var violation string
		repricings := 0
		cfg.OnAlloc = func(at, total, ceil float64) {
			repricings++
			if violation == "" {
				violation = unconserved(at, total, ceil)
			}
		}
		tenants, truncated := 0, 0
		for seed := uint64(1000); seed < 1300; seed++ {
			violation = ""
			res := machine.Simulate(cfg, seed)
			for _, jr := range res.Jobs {
				tenants++
				if jr.Run.Truncated {
					truncated++
				}
			}
			if violation != "" {
				t.Errorf("%s seed %d: %s", name, seed, violation)
			}
			if err := checkMachineRun(cfg, seed, res); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
		}
		if repricings == 0 {
			t.Errorf("%s: the conservation probe saw no repricing", name)
		}
		t.Logf("%s: %d tenant runs checked, %d truncated, %d repricings probed", name, tenants, truncated, repricings)
	}
}
