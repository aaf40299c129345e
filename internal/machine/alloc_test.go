package machine_test

import (
	"math"
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

// sweepAllocs returns how many allocations one SimulateN(cfg, runs, 1, 1)
// call makes once warm: the call is repeated until the pooled run
// records, step-tier records and engines have grown to the sweep's
// needs, and the fewest allocations of three measured calls count (a
// call whose pooled record was collected rebuilds it).
func sweepAllocs(cfg machine.Config, runs int) float64 {
	for i := 0; i < 4; i++ {
		machine.SimulateN(cfg, runs, 1, 1)
	}
	least := math.Inf(1)
	for i := 0; i < 3; i++ {
		// AllocsPerRun(1, …) reports the exact count of one measured call
		// (after one warm-up call), at GOMAXPROCS 1, so the sweep's one
		// worker stays with the pools of one P.
		least = min(least, testing.AllocsPerRun(1, func() { machine.SimulateN(cfg, runs, 1, 1) }))
	}
	return least
}

// warmRunAllocs splits a warm one-worker sweep's allocations into the
// per-call set-up (the cohort's one prepare and the sweep's runner) and
// the allocations of each run after the first: a sweep of 2·runs seeds
// against one of runs seeds, both warm on the longer sweep's records.
func warmRunAllocs(cfg machine.Config, runs int) (setup, perRun float64) {
	long := sweepAllocs(cfg, 2*runs)
	short := sweepAllocs(cfg, runs)
	perRun = (long - short) / float64(runs)
	return short - perRun*float64(runs), perRun
}

// TestMachineRunAllocsFlat pins a warm machine run's allocations at its
// Result — the Jobs and Decisions slices the caller keeps, two
// allocations — however many repricings and fault windows it has: three
// quiet tenants contend for two drain slots under brownouts (some of them
// blackouts), drain-slot outages and the starvation watchdog. A sweep of
// runs eight times as long, with several times the windows, allocates
// exactly what the short one does, its per-call set-up included.
func TestMachineRunAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need the engine, record and node-table pools, which -race defeats")
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
	const hours, runs = 24, 16
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
	const resultAllocs = 2
	setupS, perS := warmRunAllocs(short, runs)
	setupL, perL := warmRunAllocs(long, runs)
	if perS != resultAllocs || perL != resultAllocs || setupL != setupS {
		t.Errorf("warm runs allocate %g (%d brownouts, %d outages) and %g (%d, %d) each after a set-up of %g and %g, want %d each after equal set-ups: repricings or fault windows allocate",
			perS, rs.Brownouts, rs.DrainOutages, perL, rl.Brownouts, rl.DrainOutages, setupS, setupL, resultAllocs)
	}
	t.Logf("warm runs allocate %g each after a per-sweep set-up of %g", perS, setupS)
}

// TestMachineCrashReadmissionAllocsNoRecord: a tenant readmitted after a
// crash restarts on a recycled step-tier run record, its requeue timer
// and completion hook are bound once, and its decisions land in the
// record's kept log, so a readmission allocates nothing: warm runs of a
// cohort that crashes and requeues over and over allocate exactly their
// Result, as warm runs of the same cohort without crashes do.
func TestMachineCrashReadmissionAllocsNoRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need the engine, record and node-table pools, which -race defeats")
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
	const runs = 8
	calm, crashy := cohort(0), cohort(1)
	readmissions := 0
	for _, r := range machine.SimulateN(crashy, 2*runs, 1, 1)[runs:] {
		readmissions += r.CrashRequeues
	}
	if readmissions < 8 {
		t.Fatalf("%d readmissions in the measured runs are too few to separate their cost", readmissions)
	}
	const resultAllocs = 2
	setupC, perC := warmRunAllocs(calm, runs)
	setupX, perX := warmRunAllocs(crashy, runs)
	if perC != resultAllocs || perX != resultAllocs || setupX != setupC {
		t.Errorf("warm runs allocate %g with %d readmissions in %d runs and %g without, after set-ups of %g and %g: want %d each, 0 per readmission",
			perX, readmissions, runs, perC, setupX, setupC, resultAllocs)
	}
	t.Logf("%d readmissions in %d warm runs, %g allocations per run", readmissions, runs, perX)
}
