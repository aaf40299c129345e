package experiments

import (
	"runtime"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/workload"
)

func TestParamsWithDefaults(t *testing.T) {
	d := Params{}.withDefaults()
	if d.Runs != 200 || d.Seed != 42 || d.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("zero Params defaulted to %+v", d)
	}
	// An explicitly chosen zero seed must survive (the old sentinel
	// silently replaced it with 42).
	if z := (Params{Seed: 0, SeedSet: true}).withDefaults(); z.Seed != 0 {
		t.Fatalf("explicit seed 0 replaced with %d", z.Seed)
	}
	// Negative counts clamp to the defaults rather than panicking later.
	if n := (Params{Runs: -5, Workers: -3}).withDefaults(); n.Runs != 200 || n.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative counts defaulted to %+v", n)
	}
	// Explicit values pass through untouched.
	if k := (Params{Runs: 7, Seed: 9, Workers: 2}).withDefaults(); k.Runs != 7 || k.Seed != 9 || k.Workers != 2 {
		t.Fatalf("explicit Params rewritten to %+v", k)
	}
}

func TestRunConfigMetersIntoCollector(t *testing.T) {
	app := workload.App{Name: "tiny", Nodes: 16, TotalCkptGB: 160, ComputeHours: 10}
	p := Params{Runs: 4, Seed: 1, SeedSet: true, Workers: 2, Metrics: metrics.NewCollector()}
	plat := platform.Config{App: app, System: failure.Titan}
	if agg := runConfig(p, policy.B, plat, "meter-test"); len(agg.Runs()) != 4 {
		t.Fatalf("metered runConfig aggregated %d runs, want 4", len(agg.Runs()))
	}
	snap := p.Metrics.Snapshot()
	if snap.Empty() {
		t.Fatal("collector stayed empty after a metered runConfig")
	}
	if snap.Histograms["sim.B.bb_write_seconds"].Count == 0 {
		t.Fatal("no BB write spans collected")
	}
}
