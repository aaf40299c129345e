package experiments

import (
	"fmt"

	"pckpt/internal/failure"
	"pckpt/internal/machine"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/tablefmt"
	"pckpt/internal/workload"
)

// contentionCohort is the fixed multi-tenant cohort the contention
// experiment simulates: three 16-node tenants — an M1 safeguarder, a
// P2 p-ckpt tenant, and a plain-B tenant arriving mid-run — on a
// machine whose PFS ceiling is far below their combined solo demand.
// Unbounded spares keep every run to completion (a truncated wall is
// pinned by the failure stream, which would mask the contention
// stretch under study).
func contentionCohort() machine.Config {
	app := workload.App{Name: "tenant", Nodes: 16, TotalCkptGB: 320, ComputeHours: 4}
	sys := failure.System{Name: "busy", Shape: 0.75, ScaleHours: 2, Nodes: 16}
	job := func(m policy.ID, arrival float64) machine.JobSpec {
		return machine.JobSpec{
			Model:          m,
			Platform:       platform.Config{App: app, System: sys},
			ArrivalSeconds: arrival,
		}
	}
	return machine.Config{
		Jobs: []machine.JobSpec{
			job(policy.M1, 0),
			job(policy.P2, 0),
			job(policy.B, 1800),
		},
		PFSCeilingGBs: 3,
	}
}

// Contention runs the shared-machine cohort: per-tenant slowdown versus
// an uncontended solo run, admission queue wait, and bandwidth
// starvation, averaged over the sweep's runs. The bandwidth arbiter
// serves p-ckpt's vulnerable-node writes in a machine-wide priority
// lane, so P2's phase-1 commits hold their solo price even on a
// saturated PFS.
func Contention(p Params) Result {
	p = p.withDefaults()
	cfg := contentionCohort()
	// -machine-* flags degrade this cohort too; the zero plan keeps the
	// experiment bit-identical to the pre-fault build.
	cfg.Faults = p.MachineFaults
	seed := configSeed(p.Seed, "contention")
	sum := machine.Sweep(cfg, p.Runs, seed, p.Workers)

	t := tablefmt.NewTable("Job", "Model", "Arrive(s)", "Wall(h)", "Slowdown(x)", "QueueWait(s)", "Starve(s)")
	values := map[string]float64{}
	for i, a := range sum.Jobs {
		j := cfg.Jobs[i]
		t.AddRow(
			fmt.Sprintf("%d", i),
			j.Model.String(),
			fmt.Sprintf("%.0f", j.ArrivalSeconds),
			fmt.Sprintf("%.2f", sum.Mean(a.WallSeconds)/3600),
			fmt.Sprintf("%.3f", sum.Mean(a.SlowdownX)),
			fmt.Sprintf("%.1f", sum.Mean(a.QueueWaitSeconds)),
			fmt.Sprintf("%.1f", sum.Mean(a.StarvationSeconds)),
		)
		key := fmt.Sprintf("job%d/%s", i, j.Model)
		values[key+"/slowdown-x"] = sum.Mean(a.SlowdownX)
		values[key+"/queue-wait-s"] = sum.Mean(a.QueueWaitSeconds)
		values[key+"/starve-s"] = sum.Mean(a.StarvationSeconds)
		values[key+"/truncated-frac"] = sum.Mean(float64(a.Truncated))
	}
	values["makespan-h"] = sum.Mean(sum.MakespanSeconds) / 3600
	values["peak-alloc-gbs"] = sum.PeakAllocGBs

	text := t.String() + fmt.Sprintf(
		"\n(three tenants share one %.0f GB/s PFS ceiling under %s admission;\n"+
			" slowdown is contended wall over the same job, platform, and seed run solo —\n"+
			" the arbiter's priority lane keeps p-ckpt phase-1 writes at their solo price;\n"+
			" mean makespan %.2fh, peak aggregate allocation %.2f GB/s)\n",
		cfg.PFSCeilingGBs, machine.FIFO{}.Name(), sum.Mean(sum.MakespanSeconds)/3600, sum.PeakAllocGBs) +
		failedRunsLine(sum)
	return Result{
		ID:     "contention",
		Title:  "Extension: multi-tenant contention — shared PFS bandwidth arbitration and admission",
		Text:   text,
		Values: values,
	}
}

// failedRunsLine is the line a machine experiment appends to its text
// when runs panicked, naming the first; it is empty when none did.
func failedRunsLine(sum machine.Summary) string {
	if len(sum.Failed) == 0 {
		return ""
	}
	return fmt.Sprintf("(%d of %d runs panicked and are excluded from the means; first: %+v)\n",
		len(sum.Failed), len(sum.Failed)+sum.Runs, sum.Failed[0])
}
