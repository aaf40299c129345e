package nodesim

import (
	"testing"

	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
)

func TestSimulateMetersNodeGranularRun(t *testing.T) {
	reg := metrics.New()
	cfg := Config{Policy: policy.P2, Config: platform.Config{App: smallApp, System: busySystem}, Metrics: reg}
	r := Simulate(cfg, 5)
	snap := reg.Snapshot(r.WallSeconds)
	// Every completed BB phase observes exactly one blocked span.
	if bw := snap.Histograms["nodesim.hybrid.bb_write_seconds"]; int(bw.Count) != r.Checkpoints {
		t.Fatalf("bb_write_seconds count %d != %d checkpoints", int(bw.Count), r.Checkpoints)
	}
	if g, ok := snap.Gauges["nodesim.hybrid.drain_queue_depth"]; !ok || g.Max < 1 {
		t.Fatalf("drain queue depth gauge missing or flat: %+v", g)
	}
	// Metering must not perturb the simulation.
	if plain := Simulate(Config{Policy: policy.P2, Config: platform.Config{App: smallApp, System: busySystem}}, 5); r != plain {
		t.Fatalf("metering changed the run:\n%+v\n%+v", r, plain)
	}
}
