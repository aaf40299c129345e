package machine_test

import (
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/machine"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/sim"
	"pckpt/internal/stepsim"
	"pckpt/internal/workload"
)

// TestArbiterChurnAllocsZero pins the arbiter's mutation paths as
// allocation-free once warm: a round starts every class of flow (one
// drain queueing for a slot), suspends and resumes, cancels a flow,
// blacks the ceiling out and revokes every drain slot until the
// starvation watchdog escalates, heals, and lets every flow complete.
// Flow records come off the arbiter's free list with their callbacks
// bound, and the drain-slot eviction reuses a scratch slice.
func TestArbiterChurnAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need the engine pool, which -race defeats")
	}
	const escBound = 5.0
	eng := sim.NewEngine()
	arb := machine.NewBandwidthArbiter(eng, 100, 2, 4)
	arb.SetStarvationEscalation(escBound)
	completed := 0
	done := func() { completed++ }
	heal := func() {
		arb.SetCeiling(100)
		arb.SetMaxDrains(2)
	}
	round := func() {
		c := arb.StartFlow(0, stepsim.ClassCollective, 400, 10, done)
		arb.StartFlow(1, stepsim.ClassVulnerable, 200, 5, done)
		arb.StartFlow(2, stepsim.ClassDrain, 300, 10, done)
		arb.StartFlow(3, stepsim.ClassDrain, 300, 10, done)
		arb.StartFlow(2, stepsim.ClassDrain, 300, 10, done) // no free slot: queues
		x := arb.StartFlow(3, stepsim.ClassRecovery, 100, 10, done)
		arb.SuspendFlow(c)
		arb.ResumeFlow(c)
		arb.CancelFlow(x)
		arb.SetCeiling(0)
		arb.SetMaxDrains(0) // evicts both in-flight drains to the queue front
		eng.After(2*escBound, "", heal)
		eng.RunAll()
	}
	const warm, rounds = 4, 50
	for i := 0; i < warm; i++ {
		round()
	}
	if completed != 5*warm || arb.EscalationCount() == 0 {
		t.Fatalf("%d completions in %d rounds (want %d), %d escalations: the churn round went inert",
			completed, warm, 5*warm, arb.EscalationCount())
	}
	// AllocsPerRun(1, …) reports the exact count of one measured call
	// (after one warm-up call), where a larger run count would floor the
	// per-round average.
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < rounds; i++ {
			round()
		}
	}); allocs != 0 {
		t.Fatalf("%.0f allocations in %d warm churn rounds, want 0", allocs, rounds)
	}
}

// quietTenant is a 48-node job with a realistic failure-rate prior, so
// its checkpoint interval yields many periodic cycles, but no failure or
// prediction inside the run: its replayed trace holds one failure at
// t = 1e9 s, past any run's end. Its only arbitered transfers are the
// periodic drains.
func quietTenant(model policy.ID, computeHours float64) machine.JobSpec {
	return machine.JobSpec{
		Model: model,
		Platform: platform.Config{
			App:    workload.App{Name: "quiet-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: computeHours},
			System: failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48},
			Replay: &failure.Replay{
				Name:           "quiet",
				Nodes:          48,
				HorizonSeconds: 1e9,
				Events:         []failure.ReplayEvent{{T: 1e9, Node: 0}},
			},
		},
	}
}

// TestMachineRunAllocsFlat pins a machine run's allocations as
// independent of how many repricings and fault windows it has: three
// quiet tenants contend for two drain slots under brownouts (some of them
// blackouts), drain-slot outages and the starvation watchdog. A run
// eight times as long, with several times the windows, allocates the
// same as the short one up to a small constant.
func TestMachineRunAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need the engine and node-table pools, which -race defeats")
	}
	cohort := func(hours float64) machine.Config {
		return machine.Config{
			Jobs: []machine.JobSpec{
				quietTenant(policy.B, hours),
				quietTenant(policy.M1, hours),
				quietTenant(policy.P2, hours),
			},
			PFSCeilingGBs:       20,
			MaxConcurrentDrains: 2,
			Faults: faultinject.MachineConfig{
				BrownoutRatePerHour:         1,
				BrownoutMeanSeconds:         600,
				BlackoutProb:                0.25,
				DrainOutageRatePerHour:      1,
				DrainOutageMeanSeconds:      300,
				DrainOutageSlots:            2,
				StarvationEscalationSeconds: 300,
			},
		}
	}
	const hours = 24
	short, long := cohort(hours), cohort(8*hours)
	rs, rl := machine.Simulate(short, 1), machine.Simulate(long, 1)
	for _, r := range []machine.Result{rs, rl} {
		for _, jr := range r.Jobs {
			if jr.Run.Failures != 0 || jr.Run.Truncated {
				t.Fatalf("quiet tenant %d saw %d failures (truncated %v)", jr.Job, jr.Run.Failures, jr.Run.Truncated)
			}
		}
	}
	if rs.Brownouts < 4 || rs.DrainOutages < 4 || rl.Brownouts < 4*rs.Brownouts || rl.DrainOutages < 4*rs.DrainOutages {
		t.Fatalf("%d/%d brownouts and %d/%d drain outages (short/long) do not separate the per-window cost from the per-run cost",
			rs.Brownouts, rl.Brownouts, rs.DrainOutages, rl.DrainOutages)
	}
	as := testing.AllocsPerRun(5, func() { machine.Simulate(short, 1) })
	al := testing.AllocsPerRun(5, func() { machine.Simulate(long, 1) })
	if al > as+16 {
		t.Errorf("%.0f allocations for %d brownouts and %d outages vs %.0f for %d and %d: repricings or fault windows allocate",
			al, rl.Brownouts, rl.DrainOutages, as, rs.Brownouts, rs.DrainOutages)
	}
}

// TestMachineCrashReadmissionAllocsNoRecord: a tenant readmitted after a
// crash restarts on a recycled step-tier run record, so a readmission
// costs only the machine's own bookkeeping (its requeue timer and
// completion hook, and the admission log) — a few allocations, where a
// new app record cost dozens. Two cohorts differ only in their crash
// rate; the crashing one's extra allocations, per readmission, must stay
// below the bound.
func TestMachineCrashReadmissionAllocsNoRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need the engine and record pools, which -race defeats")
	}
	cohort := func(crashRate float64) machine.Config {
		return machine.Config{
			Jobs: []machine.JobSpec{
				quietTenant(policy.B, 6),
				quietTenant(policy.M1, 6),
				quietTenant(policy.P2, 6),
			},
			PFSCeilingGBs:       20,
			MaxConcurrentDrains: 2,
			Faults: faultinject.MachineConfig{
				BrownoutRatePerHour: 1,
				BrownoutMeanSeconds: 600,
				CrashRatePerHour:    crashRate,
				CrashMaxRetries:     4,
				CrashBackoffSeconds: 60,
			},
		}
	}
	const seeds = 4
	calm, crashy := cohort(0), cohort(1)
	readmissions := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		readmissions += machine.Simulate(crashy, seed).CrashRequeues
	}
	if readmissions < 8 {
		t.Fatalf("%d readmissions are too few to separate their cost", readmissions)
	}
	runs := func(cfg machine.Config) func() {
		return func() {
			for seed := uint64(1); seed <= seeds; seed++ {
				machine.Simulate(cfg, seed)
			}
		}
	}
	ac := testing.AllocsPerRun(5, runs(calm))
	ax := testing.AllocsPerRun(5, runs(crashy))
	const bound = 6
	if per := (ax - ac) / float64(readmissions); per > bound {
		t.Errorf("%.0f allocations with %d readmissions vs %.0f without: %.1f per readmission, want at most %d",
			ax, readmissions, ac, per, bound)
	}
	t.Logf("%.0f allocations with %d readmissions vs %.0f without", ax, readmissions, ac)
}
