package machine_test

import (
	"runtime"
	"testing"

	"pckpt/internal/machine"
	"pckpt/internal/policy"
	"pckpt/internal/scenario"
	"pckpt/internal/sim"
	"pckpt/internal/stepsim"
)

// BenchmarkArbiterReprice measures the arbiter's hot path: a standing
// population of fair-share flows with a churn of starts and completions,
// each mutation triggering a full repricing (advance + water-fill +
// re-arming the completion alarm at the earliest completion).
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

// BenchmarkMachineDegradedSpec is the machine path's one-call rung: the
// machine-degraded example spec, loaded through scenario, simulated b.N
// times by one SimulateN call at one worker. It reports ns/run and
// allocs/run; the spec's three tenants, brownouts, drain outages and
// crash requeues are the benchmark's machine-spec workload.
func BenchmarkMachineDegradedSpec(b *testing.B) {
	spec, err := scenario.Load("../../examples/scenarios/machine-degraded.json")
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := spec.MachineConfig()
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	machine.SimulateN(cfg, b.N, 42, 1)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/run")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/run")
}
