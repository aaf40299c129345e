package machine_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"pckpt/internal/faultinject"
	"pckpt/internal/machine"
	"pckpt/internal/policy"
	"pckpt/internal/rng"
	"pckpt/internal/sim"
	"pckpt/internal/stepsim"
)

// conserving installs the conservation probe on arb: at every repricing
// the total allocation is non-negative and never exceeds the
// instantaneous ceiling — the property every fault transition
// (brownout, blackout, drain outage, crash) must preserve.
func conserving(t *testing.T, arb *machine.BandwidthArbiter) {
	t.Helper()
	arb.SetAllocObserver(func(at, total, ceil float64) {
		if msg := unconserved(at, total, ceil); msg != "" {
			t.Fatal(msg)
		}
	})
}

// unconserved describes a repricing that breaks conservation, or returns
// "".
func unconserved(at, total, ceil float64) string {
	if total > ceil*(1+1e-9)+1e-12 {
		return fmt.Sprintf("allocation %g exceeds ceiling %g at t=%g", total, ceil, at)
	}
	if total < 0 {
		return fmt.Sprintf("negative allocation %g at t=%g", total, at)
	}
	return ""
}

// A blackout (ceiling zero) freezes every flow with exact progress
// accounting — no division by a zero share, no negative rate — and the
// flow resumes from precisely where it stopped when the ceiling lifts.
func TestArbiterBlackoutFreezesProgress(t *testing.T) {
	eng := sim.NewEngine()
	arb := machine.NewBandwidthArbiter(eng, 1000, 4, 1)
	conserving(t, arb)
	doneAt := -1.0
	arb.StartFlow(0, stepsim.ClassCollective, 100, 10, func() { doneAt = eng.Now() })
	eng.After(4, "", func() { arb.SetCeiling(0) })
	eng.After(7, "", func() { arb.SetCeiling(1000) })
	eng.RunAll()
	// 4s of transfer, 3s blacked out, 6s remaining: done at 13.
	if !near(doneAt, 13) {
		t.Fatalf("flow finished at %g, want 13 (blackout froze 3s)", doneAt)
	}
	if got := arb.StarvationSeconds(0); !near(got, 3) {
		t.Fatalf("StarvationSeconds = %g, want 3 (the blackout window)", got)
	}
	if got := arb.MaxStarvationStretchSeconds(0); !near(got, 3) {
		t.Fatalf("MaxStarvationStretchSeconds = %g, want 3", got)
	}
}

// A shrinking (but non-zero) ceiling reprices every in-flight flow to
// its new share mid-stream, preserving integrated volume.
func TestArbiterShrinkingCeilingReprices(t *testing.T) {
	eng := sim.NewEngine()
	arb := machine.NewBandwidthArbiter(eng, 100, 4, 2)
	conserving(t, arb)
	var at [2]float64
	for i := 0; i < 2; i++ {
		i := i
		arb.StartFlow(i, stepsim.ClassCollective, 1000, 10, func() { at[i] = eng.Now() })
	}
	eng.After(10, "", func() { arb.SetCeiling(50) })
	eng.RunAll()
	// Fair share 50 each for 10s (500GB moved), then 25 each for the
	// remaining 500GB: done at 30.
	for i, got := range at {
		if !near(got, 30) {
			t.Fatalf("flow %d finished at %g, want 30", i, got)
		}
	}
	if arb.Ceiling() != 50 {
		t.Fatalf("Ceiling() = %g, want 50", arb.Ceiling())
	}
}

// A negative or NaN ceiling is a programming error, not a fault state.
func TestArbiterSetCeilingRejectsInvalid(t *testing.T) {
	for name, bad := range map[string]float64{"negative": -1, "nan": math.NaN()} {
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			arb := machine.NewBandwidthArbiter(eng, 100, 4, 1)
			defer func() {
				if recover() == nil {
					t.Fatal("SetCeiling accepted an invalid ceiling")
				}
			}()
			arb.SetCeiling(bad)
		})
	}
}

// A drain-slot outage evicts in-flight drains and requeues them at the
// FRONT of the slot queue in start order: when slots return, the
// interrupted drains resume FIFO ahead of drains that never started.
func TestArbiterDrainOutageRequeuesFIFO(t *testing.T) {
	eng := sim.NewEngine()
	arb := machine.NewBandwidthArbiter(eng, 1000, 2, 3)
	conserving(t, arb)
	var at [3]float64
	for i := 0; i < 3; i++ {
		i := i
		arb.StartFlow(i, stepsim.ClassDrain, 100, 10, func() { at[i] = eng.Now() })
	}
	if got := arb.QueuedDrains(); got != 1 {
		t.Fatalf("QueuedDrains = %d, want 1 before the outage", got)
	}
	eng.After(5, "", func() {
		arb.SetMaxDrains(0)
		if got := arb.QueuedDrains(); got != 3 {
			t.Fatalf("QueuedDrains = %d mid-outage, want 3 (both in-flight drains evicted)", got)
		}
	})
	eng.After(8, "", func() { arb.SetMaxDrains(1) })
	eng.RunAll()
	// Drains 0 and 1 each moved 50GB before the outage. With one slot
	// back at t=8, drain 0 resumes first (50GB: done 13), then drain 1
	// (50GB: done 18), then the never-started drain 2 (100GB: done 28).
	want := [3]float64{13, 18, 28}
	for i := range at {
		if !near(at[i], want[i]) {
			t.Fatalf("drain %d finished at %g, want %g (FIFO resume order)", i, at[i], want[i])
		}
	}
	if arb.MaxDrains() != 1 {
		t.Fatalf("MaxDrains() = %d, want 1", arb.MaxDrains())
	}
}

// The starvation watchdog escalates a flow starved past the bound into
// the priority lane: the stretch never exceeds the bound (the escalated
// lane is water-filled first, so the flow holds a positive rate from
// the moment the watchdog fires while any ceiling remains).
func TestArbiterStarvationWatchdogEscalates(t *testing.T) {
	eng := sim.NewEngine()
	arb := machine.NewBandwidthArbiter(eng, 100, 4, 2)
	conserving(t, arb)
	arb.SetStarvationEscalation(20)
	var vulnAt, collAt float64
	// The vulnerable flow soaks the whole ceiling for 100s; the
	// collective flow starves behind it.
	arb.StartFlow(0, stepsim.ClassVulnerable, 10000, 100, func() { vulnAt = eng.Now() })
	arb.StartFlow(1, stepsim.ClassCollective, 100, 10, func() { collAt = eng.Now() })
	eng.RunAll()
	// At t=20 the watchdog fires: the collective flow escalates and is
	// served first at its solo rate 10; the vulnerable flow drops to 90
	// until the escalated flow departs at 30, then takes the full 100:
	// 10000 = 20·100 + 10·90 + x·100 → x = 71, done at 101.
	if !near(collAt, 30) {
		t.Fatalf("starved flow finished at %g, want 30 (escalated at the 20s bound)", collAt)
	}
	if !near(vulnAt, 101) {
		t.Fatalf("vulnerable flow finished at %g, want 101", vulnAt)
	}
	if got := arb.Escalations(1); got != 1 {
		t.Fatalf("Escalations(1) = %d, want 1", got)
	}
	if got := arb.EscalationCount(); got != 1 {
		t.Fatalf("EscalationCount() = %d, want 1", got)
	}
	if got := arb.MaxStarvationStretchSeconds(1); got > 20+1e-9 || !near(got, 20) {
		t.Fatalf("MaxStarvationStretchSeconds(1) = %g, want 20 (the watchdog bound)", got)
	}
}

// Property test (testing/quick over the trial seed): under randomized
// interleavings of suspend, resume, cancel, brownout/blackout ceiling
// moves, and drain-budget changes, conservation holds at every
// repricing, every surviving flow still completes once the machine
// heals, and no drain is left queued for a slot (interleavingTrial).
func TestArbiterFaultInterleavingConservation(t *testing.T) {
	trial := func(seed uint64) bool {
		interleavingTrial(t, seed)
		return !t.Failed()
	}
	if err := quick.Check(trial, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// FuzzArbiterFaultInterleaving runs interleavingTrial on fuzzed trial
// seeds, so the fuzzing engine explores the arbiter's completion alarm,
// its idle edges and the watchdog beyond the property test's draws.
func FuzzArbiterFaultInterleaving(f *testing.F) {
	for _, seed := range []uint64{0, 1, 42, 0x9e3779b97f4a7c15} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { interleavingTrial(t, seed) })
}

// interleavingTrial drives one arbiter through a random interleaving,
// drawn from seed, of flow starts, suspends, resumes, cancels, ceiling
// moves (blackouts included) and drain-budget changes, then heals the
// machine. Conservation must hold at every repricing, every flow must
// complete or be cancelled (never both), the starvation accounting must
// stay finite, no drain may be left queued, and the drained engine must
// reset: no alarm is left armed.
func interleavingTrial(t *testing.T, seed uint64) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("failing trial seed %#x", seed)
		}
	}()
	src := rng.New(seed)
	eng := sim.NewEngine()
	const ceiling = 50.0
	arb := machine.NewBandwidthArbiter(eng, ceiling, 2, 4)
	conserving(t, arb)
	arb.SetStarvationEscalation(40)

	classes := []stepsim.WriteClass{stepsim.ClassCollective, stepsim.ClassVulnerable, stepsim.ClassDrain}
	n := 4 + src.Intn(8)
	completed := make([]bool, n)
	cancelled := make([]bool, n)
	ids := make([]stepsim.FlowID, n)
	for i := 0; i < n; i++ {
		i := i
		ids[i] = arb.StartFlow(i%4, classes[src.Intn(3)],
			src.Uniform(20, 300), src.Uniform(5, 40),
			func() { completed[i] = true })
	}
	// Random fault transitions over the first 500s; the machine heals
	// at t=1000 so every surviving flow can drain.
	events := 6 + src.Intn(10)
	for e := 0; e < events; e++ {
		at := src.Uniform(1, 500)
		switch src.Intn(5) {
		case 0: // brownout or blackout
			f := src.Uniform(0, 1)
			if src.Bool(0.3) {
				f = 0
			}
			eng.After(at, "", func() { arb.SetCeiling(ceiling * f) })
		case 1: // drain-slot outage / restore
			slots := src.Intn(3)
			eng.After(at, "", func() { arb.SetMaxDrains(slots) })
		case 2: // suspend, with a guaranteed later resume
			i := src.Intn(n)
			eng.After(at, "", func() { arb.SuspendFlow(ids[i]) })
			eng.After(at+src.Uniform(1, 200), "", func() { arb.ResumeFlow(ids[i]) })
		case 3: // tenant-crash style cancellation
			i := src.Intn(n)
			eng.After(at, "", func() {
				if !completed[i] {
					cancelled[i] = true
					arb.CancelFlow(ids[i])
				}
			})
		case 4: // spurious resume of a never-suspended flow (no-op)
			i := src.Intn(n)
			eng.After(at, "", func() { arb.ResumeFlow(ids[i]) })
		}
	}
	eng.After(1000, "", func() {
		arb.SetCeiling(ceiling)
		arb.SetMaxDrains(2)
	})
	eng.RunAll()
	if !eng.Reset() {
		t.Fatalf("seed %#x: the drained engine does not reset: an alarm is left armed", seed)
	}
	eng.Release()
	for i := 0; i < n; i++ {
		if cancelled[i] && completed[i] {
			// A cancel raced a completion within the same trial only if
			// the flow finished first, in which case cancelled is never
			// set (the closure checks). Anything else is a double-fire.
			t.Fatalf("seed %#x: flow %d both cancelled and completed", seed, i)
		}
		if !cancelled[i] && !completed[i] {
			t.Fatalf("seed %#x: flow %d neither cancelled nor completed after the machine healed", seed, i)
		}
	}
	for app := 0; app < 4; app++ {
		if s := arb.StarvationSeconds(app); s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("seed %#x: StarvationSeconds(%d) = %g", seed, app, s)
		}
		if s := arb.MaxStarvationStretchSeconds(app); s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("seed %#x: MaxStarvationStretchSeconds(%d) = %g", seed, app, s)
		}
	}
	if q := arb.QueuedDrains(); q != 0 {
		t.Fatalf("seed %#x: %d drains still queued for a slot after the machine healed", seed, q)
	}
}

// crashPlan is a machine-fault plan aggressive enough that rack crashes
// reliably strike the test cohort.
func crashPlan() faultinject.MachineConfig {
	return faultinject.MachineConfig{
		CrashRatePerHour:    20,
		CrashMaxRetries:     1,
		CrashBackoffSeconds: 100,
	}
}

// The crash lifecycle emits a well-formed decision log under both
// admission policies: admit precedes crash, every crash is followed by
// exactly one requeue (at crash time + the doubling backoff) or a
// same-instant give-up, a requeued job is readmitted, and the per-job
// outcome (crash count, truncation marker) matches the log.
func TestMachineCrashRequeueReadmitOrdering(t *testing.T) {
	for name, adm := range map[string]machine.AdmissionPolicy{
		"fifo":         machine.FIFO{},
		"smallest-fit": machine.SmallestFit{},
	} {
		t.Run(name, func(t *testing.T) {
			jobs := []machine.JobSpec{testJob(policy.M1, 0), testJob(policy.P2, 0), testJob(policy.B, 600)}
			for i := range jobs {
				// Unbounded spares: the only truncation path left is the
				// crash give-up, so the marker pins the crash lifecycle.
				jobs[i].Platform.SpareNodes = 0
			}
			cfg := machine.Config{
				Jobs:      jobs,
				Faults:    crashPlan(),
				Admission: adm,
			}
			res := machine.Simulate(cfg, 42)
			if res.TenantCrashes == 0 {
				t.Fatal("a 20 crashes/hour plan never struck the cohort — fault substream drift?")
			}
			last := make(map[int]string)
			crashes := make(map[int]int)
			crashAt := make(map[int]float64)
			for _, d := range res.Decisions {
				switch d.Kind {
				case machine.DecisionAdmit:
					if prev, seen := last[d.Job]; seen && prev != machine.DecisionRequeue {
						t.Fatalf("job %d admitted after %q, want only first or after requeue", d.Job, prev)
					}
				case machine.DecisionCrash:
					if last[d.Job] != machine.DecisionAdmit {
						t.Fatalf("job %d crashed after %q, want admit (only running tenants crash)", d.Job, last[d.Job])
					}
					crashes[d.Job]++
					crashAt[d.Job] = d.AtSeconds
				case machine.DecisionRequeue:
					if last[d.Job] != machine.DecisionCrash {
						t.Fatalf("job %d requeued after %q, want crash", d.Job, last[d.Job])
					}
					backoff := cfg.Faults.CrashBackoffSeconds * float64(uint(1)<<uint(crashes[d.Job]-1))
					if want := crashAt[d.Job] + backoff; !near(d.AtSeconds, want) {
						t.Fatalf("job %d requeued at %g after crash %d, want %g (crash + %g backoff)",
							d.Job, d.AtSeconds, crashes[d.Job], want, backoff)
					}
				case machine.DecisionGiveUp:
					if last[d.Job] != machine.DecisionCrash || !near(d.AtSeconds, crashAt[d.Job]) {
						t.Fatalf("job %d gave up after %q at %g, want at its crash instant %g",
							d.Job, last[d.Job], d.AtSeconds, crashAt[d.Job])
					}
				default:
					t.Fatalf("unknown decision kind %q", d.Kind)
				}
				last[d.Job] = d.Kind
			}
			totalRequeues := 0
			for i, jr := range res.Jobs {
				if crashes[i] != jr.Crashes {
					t.Fatalf("job %d: %d crash decisions, JobResult.Crashes = %d", i, crashes[i], jr.Crashes)
				}
				if jr.Crashes > cfg.Faults.CrashMaxRetries+1 {
					t.Fatalf("job %d crashed %d times, bound is retries+1 = %d",
						i, jr.Crashes, cfg.Faults.CrashMaxRetries+1)
				}
				totalRequeues += jr.Crashes
				if jr.Run.Truncated {
					totalRequeues-- // the final crash gave up instead of requeueing
					if last[i] != machine.DecisionGiveUp {
						t.Fatalf("job %d truncated but its last decision is %q, want give-up", i, last[i])
					}
				} else if last[i] != machine.DecisionAdmit {
					t.Fatalf("job %d completed but its last decision is %q, want admit", i, last[i])
				}
			}
			if res.CrashRequeues != totalRequeues {
				t.Fatalf("CrashRequeues = %d, want %d (crashes minus give-ups)", res.CrashRequeues, totalRequeues)
			}
		})
	}
}

// Retry exhaustion yields the truncated-run marker: a job crashing past
// CrashMaxRetries readmissions leaves the machine as a partial run with
// no further requeue.
func TestMachineCrashRetryExhaustionTruncates(t *testing.T) {
	jobs := []machine.JobSpec{testJob(policy.M1, 0), testJob(policy.P2, 0)}
	for i := range jobs {
		jobs[i].Platform.SpareNodes = 0 // crash give-up is the only truncation path
	}
	cfg := machine.Config{
		Jobs: jobs,
		Faults: faultinject.MachineConfig{
			CrashRatePerHour:    30,
			CrashBackoffSeconds: 100,
		},
	}
	// A zero CrashMaxRetries means "default" (the -inject-retries
	// convention): the effective bound is DefaultCrashMaxRetries, so the
	// third crash of a job gives up.
	retries := cfg.Faults.WithDefaults().CrashMaxRetries
	res := machine.Simulate(cfg, 7)
	if res.TenantCrashes == 0 {
		t.Fatal("a 30 crashes/hour plan never struck")
	}
	truncated := 0
	for i, jr := range res.Jobs {
		if jr.Crashes > retries+1 {
			t.Fatalf("job %d crashed %d times past the retry bound %d", i, jr.Crashes, retries)
		}
		if jr.Run.Truncated {
			truncated++
			if jr.Crashes != retries+1 {
				t.Fatalf("job %d truncated after %d crashes, want %d (retries exhausted)", i, jr.Crashes, retries+1)
			}
			if jr.EndSeconds <= 0 {
				t.Fatalf("job %d truncated without an end time", i)
			}
		}
	}
	if truncated == 0 {
		t.Fatal("a 30 crashes/hour plan never exhausted any job's retry budget")
	}
	if want := res.TenantCrashes - truncated; res.CrashRequeues != want {
		t.Fatalf("CrashRequeues = %d, want %d (crashes minus give-ups)", res.CrashRequeues, want)
	}
}

// Conservation holds through every brownout repricing: the allocation
// never exceeds the instantaneous (possibly zero) ceiling, and the peak
// never exceeds the healthy ceiling.
func TestMachineBrownoutConservation(t *testing.T) {
	const ceiling = 3.0
	jobs := []machine.JobSpec{testJob(policy.M1, 0), testJob(policy.M1, 0), testJob(policy.P2, 0)}
	for i := range jobs {
		jobs[i].Platform.SpareNodes = 0
	}
	cfg := machine.Config{
		Jobs:          jobs,
		PFSCeilingGBs: ceiling,
		Faults: faultinject.MachineConfig{
			BrownoutRatePerHour: 6,
			BrownoutMeanSeconds: 300,
			BlackoutProb:        0.3,
		},
		OnAlloc: func(at, total, ceil float64) {
			if total > ceil*(1+1e-9)+1e-12 {
				t.Fatalf("allocation %g exceeds instantaneous ceiling %g at t=%g", total, ceil, at)
			}
		},
	}
	res := machine.Simulate(cfg, 11)
	if res.Brownouts == 0 || res.BrownoutSeconds <= 0 {
		t.Fatalf("no brownout window opened (Brownouts=%d, BrownoutSeconds=%g)", res.Brownouts, res.BrownoutSeconds)
	}
	if res.PeakAllocGBs > ceiling*(1+1e-9) {
		t.Fatalf("peak allocation %g exceeds healthy ceiling %g", res.PeakAllocGBs, ceiling)
	}
}

// Blackout windows starve every in-flight transfer; the watchdog fires
// on stretches past its bound (delivering bandwidth the instant any
// ceiling returns — the positive-ceiling bound itself is pinned by
// TestArbiterStarvationWatchdogEscalates), and stays silent when
// disarmed.
func TestMachineWatchdogEscalatesUnderBlackout(t *testing.T) {
	jobs := []machine.JobSpec{testJob(policy.M1, 0), testJob(policy.M1, 0), testJob(policy.P2, 0)}
	for i := range jobs {
		jobs[i].Platform.SpareNodes = 0
	}
	cfg := machine.Config{
		Jobs:          jobs,
		PFSCeilingGBs: 3,
		Faults: faultinject.MachineConfig{
			BrownoutRatePerHour: 4,
			BrownoutMeanSeconds: 1200,
			BlackoutProb:        1, // every window a blackout: guaranteed starvation
		},
	}
	base := machine.Simulate(cfg, 11)
	if base.Escalations != 0 {
		t.Fatalf("disarmed watchdog escalated %d times", base.Escalations)
	}
	worst := 0.0
	for _, jr := range base.Jobs {
		worst = math.Max(worst, jr.MaxStarvationStretchSeconds)
	}
	const bound = 300.0
	if worst <= bound {
		t.Fatalf("longest blackout stretch %gs never exceeds the %gs bound — the armed run below would prove nothing", worst, bound)
	}
	cfg.Faults.StarvationEscalationSeconds = bound
	res := machine.Simulate(cfg, 11)
	if res.Escalations == 0 {
		t.Fatal("the watchdog never fired despite blackout stretches past its bound")
	}
}

// Rack assignments without any fault process are inert: the simulation
// is bit-identical to the rack-less machine.
func TestMachineRacksInertWithoutFaults(t *testing.T) {
	cfg := machine.Config{
		Jobs:          []machine.JobSpec{testJob(policy.M1, 0), testJob(policy.P2, 0), testJob(policy.B, 600)},
		PFSCeilingGBs: 8,
	}
	plain := machine.Simulate(cfg, 42)
	cfg.Racks = []int{0, 0, 1}
	racked := machine.Simulate(cfg, 42)
	if !reflect.DeepEqual(plain, racked) {
		t.Fatal("rack assignments changed a fault-free simulation")
	}
}

// A cohort whose tenants crash far faster than they finish still ends:
// with a retry budget past the 64 doublings where the old integer shift
// wrapped, every backoff stops at faultinject.MaxBackoffSeconds, so each
// tenant either completes or gives up truncated after its last retry
// while brownout windows run throughout, well inside the run's event
// budget. Uncapped, the 40th crash waited 3.3e14 s while brownouts kept
// the engine busy until the watchdog tripped.
func TestMachineCrashLoopEnds(t *testing.T) {
	const retries = 70
	cfg := machine.Config{
		Jobs: []machine.JobSpec{
			quietTenant(policy.B, 24),
			quietTenant(policy.M1, 24),
			quietTenant(policy.P2, 24),
		},
		PFSCeilingGBs:       20,
		MaxConcurrentDrains: 2,
		Faults: faultinject.MachineConfig{
			BrownoutRatePerHour: 1,
			BrownoutMeanSeconds: 600,
			CrashRatePerHour:    6,
			CrashMaxRetries:     retries,
			CrashBackoffSeconds: 300,
		},
	}
	res, dispatched := machine.SimulateFresh(cfg, 1)
	for _, jr := range res.Jobs {
		if jr.Run.Truncated != (jr.Crashes == retries+1) || jr.Crashes > retries+1 {
			t.Fatalf("job %d: %d crashes, truncated %v: neither completed nor given up after %d retries", jr.Job, jr.Crashes, jr.Run.Truncated, retries)
		}
	}
	if res.TenantCrashes <= 65 || res.Brownouts == 0 {
		t.Fatalf("%d crashes and %d brownouts do not reach past the 64-doubling wrap", res.TenantCrashes, res.Brownouts)
	}
	budget := uint64(len(cfg.Jobs)) * sim.RunEventBudget
	if dispatched > budget/1000 {
		t.Fatalf("%d events dispatched, more than a thousandth of the %d-event budget", dispatched, budget)
	}
	t.Logf("%d crashes, %d brownouts, makespan %.0f h, %d events", res.TenantCrashes, res.Brownouts, res.MakespanSeconds/3600, dispatched)
}
