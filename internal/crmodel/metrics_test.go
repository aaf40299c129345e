package crmodel

import (
	"testing"

	"pckpt/internal/appmodel"
	"pckpt/internal/failure"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
)

// TestUnmeteredHotPathZeroAllocs guards the subsystem's core promise:
// with metering and tracing both off (nil registry → nil handles, nil
// recorder), a checkpoint cycle's transitions (cycle start, BB write,
// drain) and the other instrumentation sites allocate nothing.
func TestUnmeteredHotPathZeroAllocs(t *testing.T) {
	cfg := Config{Model: policy.P2, Config: platform.Config{App: testApp(t, "XGC"), System: failure.Titan}}.withDefaults()
	s := appmodel.NewSetup(cfg.Model, cfg.Config, nil)
	a := &appSim{}
	a.Init(&s, &a.cl, &a.st, a.Bind(), nil)
	now := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		a.CycleStart(now)
		now += a.Target - a.Progress
		a.Progress = a.Target
		d, _ := a.BBWritten(now+s.Plat.BBWrite, now, true)
		now += s.Plat.BBWrite
		a.DrainDone(now+s.Plat.Drain, d)
		a.Met.CommitLat.Observe(2.25)
		a.Met.PFSGBs.Observe(2400)
		a.Met.LeadConsumed.Observe(21)
		a.Met.VulnNodes.Set(10, 2)
		a.Met.EpisodesAbandoned.Inc()
	})
	if allocs != 0 {
		t.Fatalf("unmetered instrumentation sites allocate %.1f per cycle, want 0", allocs)
	}
	if a.Res.Checkpoints == 0 {
		t.Fatal("no checkpoint committed")
	}
}
