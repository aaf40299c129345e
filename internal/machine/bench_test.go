package machine_test

import (
	"testing"

	"pckpt/internal/machine"
	"pckpt/internal/policy"
	"pckpt/internal/sim"
	"pckpt/internal/stepsim"
)

// BenchmarkArbiterReprice measures the arbiter's hot path: a standing
// population of fair-share flows with a churn of starts and completions,
// each mutation triggering a full repricing (advance + water-fill +
// timer reschedule).
func BenchmarkArbiterReprice(b *testing.B) {
	eng := sim.NewEngine()
	arb := machine.NewBandwidthArbiter(eng, 100, 1<<20, 8)
	// A standing population the churn flows contend against.
	for i := 0; i < 32; i++ {
		arb.StartFlow(i%8, stepsim.ClassCollective, 1e12, 1e10, func() {})
	}
	flows := 0
	done := func() { flows++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arb.StartFlow(i%8, stepsim.ClassVulnerable, 1, 1, done)
		for {
			if t, ok := eng.PeekNextEventTime(); !ok || t > eng.Now()+2 {
				break
			}
			eng.ProcessNextEvent()
		}
	}
	b.ReportMetric(float64(flows)/b.Elapsed().Seconds(), "flows/sec")
}

// BenchmarkMachineSimulate measures a whole contended-machine run:
// three M1 tenants on a starved PFS, admission through departure,
// including the three solo-baseline runs.
func BenchmarkMachineSimulate(b *testing.B) {
	jobs := []machine.JobSpec{testJob(policy.M1, 0), testJob(policy.M1, 0), testJob(policy.M1, 1800)}
	for i := range jobs {
		jobs[i].Platform.SpareNodes = 0
	}
	cfg := machine.Config{Jobs: jobs, PFSCeilingGBs: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine.Simulate(cfg, uint64(i+1))
	}
}
