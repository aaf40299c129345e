package stepsim

import (
	"testing"

	"pckpt/internal/crmodel"
	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/sim"
	"pckpt/internal/workload"
)

// NestedPlatform is failure-heavy and degraded: failures strike inside
// the long BB writes of a checkpoint-heavy app often enough that the
// recovery (or M1's safeguard) blocks inside the interrupted write's
// wait, and restart retries and cascades nest further waits inside it.
// It is exported for the external abort tests.
func NestedPlatform() platform.Config {
	return platform.Config{
		App:    workload.App{Name: "nested", Nodes: 48, TotalCkptGB: 8160, ComputeHours: 6},
		System: failure.System{Name: "hostile", Shape: 0.75, ScaleHours: 0.5, Nodes: 48},
		Faults: faultinject.Config{
			BBWriteFailProb:  0.1,
			PFSWriteFailProb: 0.1,
			CorruptProb:      0.1,
			RestartFailProb:  0.2,
			CascadeProb:      0.2,
		},
	}
}

// TestNestedWaitFramesBitIdentity holds the step tier bit-identical to
// crmodel on runs whose blockedWait frames nest, and checks nesting
// happened: a frame is allocated only while every earlier one is in
// flight, so a free list of n frames at the end means n waits were
// parked at once. Some runs must reach three.
func TestNestedWaitFramesBitIdentity(t *testing.T) {
	nested, deep := 0, 0
	for _, id := range policy.All() {
		for seed := uint64(1); seed <= 6; seed++ {
			cfg := Config{Model: id, Config: NestedPlatform()}
			want := crmodel.Simulate(crmodel.Config{Model: id, Config: cfg.Config}, seed)
			eng := sim.NewEngine()
			a := startFresh(eng, cfg, seed)
			eng.RunAll()
			eng.Release()
			if a.Res != want {
				t.Errorf("%v seed %d: step tier diverged\napp:  %+v\nstep: %+v", id, seed, want, a.Res)
			}
			if len(a.waits.all) >= 2 {
				nested++
			}
			if len(a.waits.all) >= 3 {
				deep++
			}
		}
	}
	if nested == 0 || deep == 0 {
		t.Fatalf("%d runs nested blockedWait frames, %d three deep: the nested path never executed", nested, deep)
	}
}
