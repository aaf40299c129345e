package machine_test

import (
	"testing"

	"pckpt/internal/machine"
	"pckpt/internal/scenario"
	"pckpt/internal/stepsim"
	"pckpt/internal/sweep"
)

// TestMachineRunsKeepInvariants holds every tenant run and every solo
// baseline of both example machine specs to stepsim.CheckRun, over 300
// seeds each, simulated one after another so every tenant after the
// first starts on a recycled run record: a record that leaked state from
// an earlier tenant, a crashed one's included, would break an overhead
// identity. A solo baseline is rerun on its own and must match the wall
// time the machine divided by. Truncated tenants (give-ups) skip only the
// wall identity, as CheckRun defines.
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
		tenants, truncated := 0, 0
		for seed := uint64(1000); seed < 1300; seed++ {
			res := machine.Simulate(cfg, seed)
			for i, jr := range res.Jobs {
				job := cfg.Jobs[i]
				tenants++
				if jr.Run.Truncated {
					truncated++
				}
				if err := stepsim.CheckRun(job.Platform, jr.Run); err != nil {
					t.Errorf("%s seed %d tenant %d (%v): %v", name, seed, i, job.Model, err)
				}
				solo := stepsim.Simulate(stepsim.Config{Model: job.Model, Config: job.Platform}, sweep.Seed(seed, i))
				if err := stepsim.CheckRun(job.Platform, solo); err != nil {
					t.Errorf("%s seed %d solo baseline %d (%v): %v", name, seed, i, job.Model, err)
				}
				if solo.WallSeconds != jr.SoloWallSeconds {
					t.Errorf("%s seed %d job %d: solo baseline wall %v, the machine divided by %v", name, seed, i, solo.WallSeconds, jr.SoloWallSeconds)
				}
			}
		}
		t.Logf("%s: %d tenant runs checked, %d truncated", name, tenants, truncated)
	}
}
