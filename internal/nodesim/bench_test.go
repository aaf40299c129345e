package nodesim

import (
	"testing"

	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/workload"

	"pckpt/internal/failure"
)

// BenchmarkSimulateHybrid is the acceptance benchmark for the engine hot
// path: one full node-granular hybrid run — 48 node processes, the
// coordinator, the priority lane, a day of simulated compute. Allocations
// here are dominated by the DES engine (heap items, wake events, process
// plumbing), not the model.
func BenchmarkSimulateHybrid(b *testing.B) {
	cfg := Config{Policy: policy.P2, Config: platform.Config{App: smallApp, System: busySystem}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Simulate(cfg, uint64(i))
	}
}

// BenchmarkSimulateBase is the same run under the base policy: no
// predictions, no episodes — pure BSP compute/checkpoint phases. Isolates
// the phase-handshake cost from the protocol cost.
func BenchmarkSimulateBase(b *testing.B) {
	cfg := Config{Policy: policy.B, Config: platform.Config{App: smallApp, System: busySystem}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Simulate(cfg, uint64(i))
	}
}

// BenchmarkSimulateStorm runs p-ckpt under a failure storm: dense
// prediction traffic means constant interrupts, aborted phases, and
// cancelled wake entries — the workload that accumulates dead heap entries
// and exercises the engine's lazy-cancellation path.
func BenchmarkSimulateStorm(b *testing.B) {
	storm := failure.System{Name: "storm", Shape: 0.7, ScaleHours: 1.5, Nodes: 32}
	app := workload.App{Name: "stormy", Nodes: 32, TotalCkptGB: 32 * 30, ComputeHours: 3}
	cfg := Config{Policy: policy.P1, Config: platform.Config{App: app, System: storm}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Simulate(cfg, uint64(i))
	}
}

// BenchmarkSimulateSweep mirrors how experiments consume this tier: many
// seeds of one configuration back to back, which is where cross-run reuse
// of engine buffers pays off.
func BenchmarkSimulateSweep(b *testing.B) {
	cfg := Config{Policy: policy.P1, Config: platform.Config{App: smallApp, System: busySystem}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 8; s++ {
			Simulate(cfg, uint64(s))
		}
	}
}
