package machine_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/machine"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/sweep"
	"pckpt/internal/workload"
)

// testJob is a small, failure-busy cell that finishes fast on the step
// tier while still exercising predictions, episodes, and recoveries.
func testJob(model policy.ID, arrival float64) machine.JobSpec {
	return machine.JobSpec{
		Model: model,
		Platform: platform.Config{
			App:        workload.App{Name: "tenant", Nodes: 16, TotalCkptGB: 320, ComputeHours: 4},
			System:     failure.System{Name: "busy", Shape: 0.75, ScaleHours: 2, Nodes: 16},
			SpareNodes: 2,
		},
		ArrivalSeconds: arrival,
	}
}

// A one-job machine is an idle machine: the job's slowdown is 1 within
// float error (the arbiter prices every flow at its solo rate).
func TestMachineSingleJobNoSlowdown(t *testing.T) {
	for _, model := range []policy.ID{policy.B, policy.M1, policy.P2} {
		res := machine.Simulate(machine.Config{Jobs: []machine.JobSpec{testJob(model, 0)}}, 7)
		jr := res.Jobs[0]
		if jr.SlowdownX < 1-1e-9 || jr.SlowdownX > 1+1e-9 {
			t.Errorf("%v: solo-machine slowdown %.12f, want 1", model, jr.SlowdownX)
		}
		if jr.QueueWaitSeconds != 0 {
			t.Errorf("%v: queue wait %g on an empty machine", model, jr.QueueWaitSeconds)
		}
	}
}

// Contending tenants on a starved PFS slow down but never speed up, and
// the conservation property holds at every repricing.
func TestMachineContentionSlowdownAndConservation(t *testing.T) {
	const ceiling = 3.0 // GB/s — far below any tenant's solo demand
	// M1 tenants with unbounded spares: safeguards and PFS-restore
	// recoveries are blocking arbitered transfers, and no run truncates
	// (a truncated wall is pinned by the failure stream, not by how far
	// contention stretched the transfers).
	jobs := []machine.JobSpec{testJob(policy.M1, 0), testJob(policy.M1, 0), testJob(policy.M1, 1800)}
	for i := range jobs {
		jobs[i].Platform.SpareNodes = 0
	}
	cfg := machine.Config{
		Jobs:          jobs,
		PFSCeilingGBs: ceiling,
		OnAlloc: func(at, total, ceil float64) {
			if total > ceil*(1+1e-9) {
				t.Fatalf("allocation %g exceeds ceiling %g at t=%g", total, ceil, at)
			}
		},
	}
	res := machine.Simulate(cfg, 11)
	slowed := 0
	for _, jr := range res.Jobs {
		if jr.SlowdownX < 1-1e-9 {
			t.Fatalf("job %d sped up under contention: slowdown %.12f", jr.Job, jr.SlowdownX)
		}
		if jr.SlowdownX > 1+1e-9 {
			slowed++
		}
	}
	if slowed == 0 {
		t.Fatal("no tenant slowed down on a 3 GB/s machine — contention never priced in")
	}
	if res.PeakAllocGBs > ceiling*(1+1e-9) {
		t.Fatalf("peak allocation %g exceeds ceiling %g", res.PeakAllocGBs, ceiling)
	}
}

// A machine sized for one tenant serializes the cohort FIFO: each job
// starts when its predecessor departs, and queue waits accumulate.
func TestMachineFIFOAdmissionSerializes(t *testing.T) {
	job := testJob(policy.B, 0)
	cfg := machine.Config{
		Jobs:  []machine.JobSpec{job, job, job},
		Nodes: 18, // exactly one tenant's need (16 app + 2 spares)
	}
	res := machine.Simulate(cfg, 3)
	if len(res.Decisions) != 3 {
		t.Fatalf("%d routing decisions, want 3", len(res.Decisions))
	}
	for i, d := range res.Decisions {
		if d.Job != i {
			t.Fatalf("decision %d admitted job %d, want FIFO order", i, d.Job)
		}
	}
	for i := 1; i < 3; i++ {
		prev, jr := res.Jobs[i-1], res.Jobs[i]
		if jr.StartSeconds != prev.EndSeconds {
			t.Errorf("job %d started at %g, want %g (predecessor's departure)", i, jr.StartSeconds, prev.EndSeconds)
		}
		if jr.QueueWaitSeconds <= 0 {
			t.Errorf("job %d queue wait %g, want > 0", i, jr.QueueWaitSeconds)
		}
	}
}

// SmallestFit leapfrogs a wide head-of-line job when a narrow one fits;
// FIFO never does.
func TestMachineSmallestFitLeapfrogs(t *testing.T) {
	wide := testJob(policy.B, 0)
	wide.Platform.App.Nodes = 32
	wide.Platform.App.TotalCkptGB = 640
	wide.Platform.System.Nodes = 32
	narrow := testJob(policy.B, 0)
	running := testJob(policy.B, 0)
	cfg := machine.Config{
		// running occupies the machine first; wide (34 nodes) then
		// narrow (18) queue behind it on a 36-node machine.
		Jobs:      []machine.JobSpec{running, wide, narrow},
		Nodes:     36,
		Admission: machine.SmallestFit{},
	}
	res := machine.Simulate(cfg, 3)
	if res.Decisions[1].Job != 2 {
		t.Fatalf("second admission was job %d, want 2 (the narrow job leapfrogs)", res.Decisions[1].Job)
	}
	cfg.Admission = machine.FIFO{}
	res = machine.Simulate(cfg, 3)
	if res.Decisions[1].Job != 1 {
		t.Fatalf("second FIFO admission was job %d, want 1 (no leapfrogging)", res.Decisions[1].Job)
	}
}

// The machine simulation is deterministic in (cfg, seed) and across
// worker counts, on a healthy cohort and on one with every machine fault
// armed. Each worker recycles arbiter flow records and tenant node
// tables in its own order, so state a recycled record or table kept
// from an earlier run shows up as a DeepEqual failure.
func TestMachineDeterministicAcrossWorkers(t *testing.T) {
	healthy := machine.Config{
		Jobs: []machine.JobSpec{
			testJob(policy.M1, 0),
			testJob(policy.P2, 600),
			testJob(policy.P1, 1200),
		},
		PFSCeilingGBs: 8,
		Nodes:         40, // two tenants fit; the third queues
	}
	faulty := healthy
	faulty.Racks = []int{0, 0, 1}
	faulty.Faults = faultinject.MachineConfig{
		BrownoutRatePerHour:         2,
		BrownoutMeanSeconds:         600,
		BlackoutProb:                0.5,
		DrainOutageRatePerHour:      2,
		DrainOutageMeanSeconds:      300,
		DrainOutageSlots:            2,
		CrashRatePerHour:            1,
		CrashMaxRetries:             1,
		CrashBackoffSeconds:         300,
		StarvationEscalationSeconds: 120,
	}
	for name, tc := range map[string]struct {
		cfg  machine.Config
		runs int
	}{
		"healthy": {healthy, 6},
		"faulty":  {faulty, 12},
	} {
		t.Run(name, func(t *testing.T) {
			serial := machine.SimulateN(tc.cfg, tc.runs, 42, 1)
			if name == "faulty" {
				var crashes, requeues, escalations int
				for _, r := range serial {
					crashes += r.TenantCrashes
					requeues += r.CrashRequeues
					escalations += r.Escalations
				}
				// Crashes beyond the requeues are give-ups.
				if requeues == 0 || crashes <= requeues || escalations == 0 {
					t.Fatalf("%d crashes, %d requeues, %d escalations: the fault plan went inert", crashes, requeues, escalations)
				}
			}
			for _, workers := range []int{2, 5} {
				got := machine.SimulateN(tc.cfg, tc.runs, 42, workers)
				if !reflect.DeepEqual(serial, got) {
					t.Fatalf("results differ between 1 and %d workers", workers)
				}
			}
		})
	}
}

// Machine metrics reach the registry under the machine. prefix.
func TestMachineMetricsPublished(t *testing.T) {
	reg := metrics.New()
	cfg := machine.Config{
		Jobs:    []machine.JobSpec{testJob(policy.M1, 0), testJob(policy.P2, 0)},
		Metrics: reg,
	}
	machine.Simulate(cfg, 5)
	hists := reg.Snapshot(0).Histograms
	if got := hists["machine.queue_wait_seconds"].Count; got != 2 {
		t.Fatalf("queue_wait observations = %d, want 2", got)
	}
	if got := hists["machine.slowdown_x"].Count; got != 2 {
		t.Fatalf("slowdown observations = %d, want 2", got)
	}
}

// An invalid cohort (job wider than the machine) is rejected by every
// entry point with the validation error itself, on the caller's
// goroutine: the sweeps validate once before any worker starts, so the
// cohort never becomes one ledger entry per run.
func TestMachineValidateRejectsOversizedJob(t *testing.T) {
	cfg := machine.Config{Jobs: []machine.JobSpec{testJob(policy.B, 0)}, Nodes: 4}
	for _, entry := range []struct {
		name string
		run  func()
	}{
		{"Simulate", func() { machine.Simulate(cfg, 1) }},
		{"SimulateN", func() { machine.SimulateN(cfg, 3, 1, 2) }},
		{"Sweep", func() { machine.Sweep(cfg, 3, 1, 2) }},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s accepted a job wider than the machine", entry.name)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "needs 18 nodes") {
					t.Fatalf("%s panicked with %q, want the validation error", entry.name, msg)
				}
			}()
			entry.run()
		}()
	}
}

// crashOnce is FIFO admission that panics on its first decision: in a
// one-worker sweep that is run 0's first admission.
type crashOnce struct{ fired atomic.Bool }

func (*crashOnce) Name() string { return "crash-once" }

func (c *crashOnce) Admit(queue []machine.PendingJob, freeNodes int) (int, bool) {
	if !c.fired.Swap(true) {
		panic("planted admission crash")
	}
	return machine.FIFO{}.Admit(queue, freeNodes)
}

// A panicking machine run is ledgered by Sweep, which sums the other
// runs, and re-panicked by SimulateN on the caller's goroutine once every
// other run has finished.
func TestMachineSweepLedgersPanickingRun(t *testing.T) {
	cfg := machine.Config{Jobs: []machine.JobSpec{testJob(policy.M1, 0), testJob(policy.P2, 600)}}
	const runs, seed = 3, 42
	healthy := machine.SimulateN(cfg, runs, seed, 1)

	cfg.Admission = &crashOnce{}
	sum := machine.Sweep(cfg, runs, seed, 1)
	if sum.Runs != runs-1 || len(sum.Failed) != 1 {
		t.Fatalf("%d completed + %d failed, want %d + 1", sum.Runs, len(sum.Failed), runs-1)
	}
	if f := sum.Failed[0]; f.Seed != sweep.Seed(seed, 0) || f.Err != "planted admission crash" || !strings.Contains(f.Config, "machine") {
		t.Fatalf("failure misattributed: %+v", f)
	}
	if want := healthy[1].MakespanSeconds + healthy[2].MakespanSeconds; sum.MakespanSeconds != want {
		t.Fatalf("makespan sum %g, want %g (runs 1 and 2 only)", sum.MakespanSeconds, want)
	}

	cfg.Admission = &crashOnce{}
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			for _, frag := range []string{"1 of 3 runs panicked", "planted admission crash"} {
				if !strings.Contains(msg, frag) {
					t.Fatalf("SimulateN panic %q lacks %q", msg, frag)
				}
			}
		}()
		machine.SimulateN(cfg, runs, seed, 2)
	}()

	cfg.Admission = &crashOnce{}
	if none := machine.Sweep(cfg, 1, seed, 1); none.Runs != 0 || none.Mean(none.MakespanSeconds) != 0 {
		t.Fatalf("no completed run: %d runs, mean makespan %g, want 0 and 0 (not NaN)", none.Runs, none.Mean(none.MakespanSeconds))
	}
}
