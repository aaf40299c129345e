package experiments

import (
	"fmt"

	"pckpt/internal/faultinject"
	"pckpt/internal/machine"
	"pckpt/internal/tablefmt"
)

// machineDegradedConfig is the contention cohort under machine-scope
// fault domains: the M1 and P2 tenants share one rack (one crash draw
// strikes both), the late B tenant sits alone, and the machine itself
// degrades — PFS brownout/blackout windows move the arbiter ceiling,
// drain-slot outages requeue in-flight drains, rack crashes throw
// running tenants back through admission with bounded retries, and the
// starvation watchdog escalates any flow starved past its bound into
// the priority lane.
func machineDegradedConfig(faults faultinject.MachineConfig) machine.Config {
	cfg := contentionCohort()
	cfg.MaxConcurrentDrains = 2
	cfg.Racks = []int{0, 0, 1}
	cfg.Faults = faults
	return cfg
}

// machineDegradedFaults is the experiment's default armed plan — every
// fault process on at a moderate rate, so one golden pins the brownout
// repricing, the drain requeue, the crash lifecycle (requeues and
// retry-exhausted truncations both occur at these rates), and the
// watchdog escalations at once.
func machineDegradedFaults() faultinject.MachineConfig {
	return faultinject.MachineConfig{
		BrownoutRatePerHour:         0.5,
		BrownoutMeanSeconds:         600,
		BrownoutMinFactor:           0.2,
		BrownoutMaxFactor:           0.6,
		BlackoutProb:                0.25,
		DrainOutageRatePerHour:      0.4,
		DrainOutageMeanSeconds:      300,
		DrainOutageSlots:            2,
		CrashRatePerHour:            0.12,
		CrashMaxRetries:             2,
		CrashBackoffSeconds:         600,
		StarvationEscalationSeconds: 900,
	}
}

// MachineDegraded runs the shared-machine cohort with the machine-scope
// fault plan armed: per-tenant slowdown, crash and truncation counts,
// and starvation stretches under PFS brownouts, drain outages, and
// correlated rack crashes. A -machine-* flag set replaces the default
// plan wholesale.
func MachineDegraded(p Params) Result {
	p = p.withDefaults()
	faults := machineDegradedFaults()
	if p.MachineFaults.Enabled() {
		faults = p.MachineFaults
	}
	cfg := machineDegradedConfig(faults)
	seed := configSeed(p.Seed, "machine-degraded")
	sum := machine.Sweep(cfg, p.Runs, seed, p.Workers)

	t := tablefmt.NewTable("Job", "Model", "Rack", "Wall(h)", "Slowdown(x)", "QueueWait(s)", "Starve(s)", "MaxStretch(s)", "Crashes", "Trunc(frac)")
	values := map[string]float64{}
	for i, a := range sum.Jobs {
		j := cfg.Jobs[i]
		t.AddRow(
			fmt.Sprintf("%d", i),
			j.Model.String(),
			fmt.Sprintf("%d", cfg.Racks[i]),
			fmt.Sprintf("%.2f", sum.Mean(a.WallSeconds)/3600),
			fmt.Sprintf("%.3f", sum.Mean(a.SlowdownX)),
			fmt.Sprintf("%.1f", sum.Mean(a.QueueWaitSeconds)),
			fmt.Sprintf("%.1f", sum.Mean(a.StarvationSeconds)),
			fmt.Sprintf("%.1f", sum.Mean(a.MaxStarvationStretchSeconds)),
			fmt.Sprintf("%.2f", sum.Mean(float64(a.Crashes))),
			fmt.Sprintf("%.2f", sum.Mean(float64(a.Truncated))),
		)
		key := fmt.Sprintf("job%d/%s", i, j.Model)
		values[key+"/slowdown-x"] = sum.Mean(a.SlowdownX)
		values[key+"/queue-wait-s"] = sum.Mean(a.QueueWaitSeconds)
		values[key+"/starve-s"] = sum.Mean(a.StarvationSeconds)
		values[key+"/max-stretch-s"] = sum.Mean(a.MaxStarvationStretchSeconds)
		values[key+"/crashes"] = sum.Mean(float64(a.Crashes))
		values[key+"/truncated-frac"] = sum.Mean(float64(a.Truncated))
	}
	values["makespan-h"] = sum.Mean(sum.MakespanSeconds) / 3600
	values["peak-alloc-gbs"] = sum.PeakAllocGBs
	values["brownouts"] = sum.Mean(float64(sum.Brownouts))
	values["brownout-s"] = sum.Mean(sum.BrownoutSeconds)
	values["drain-outages"] = sum.Mean(float64(sum.DrainOutages))
	values["tenant-crashes"] = sum.Mean(float64(sum.TenantCrashes))
	values["crash-requeues"] = sum.Mean(float64(sum.CrashRequeues))
	values["escalations"] = sum.Mean(float64(sum.Escalations))

	text := t.String() + fmt.Sprintf(
		"\n(machine-scope fault domains over the contention cohort: %.2f brownout windows/run\n"+
			" (%.0fs mean total, blackout prob %.2f), %.2f drain outages/run, %.2f tenant crashes/run\n"+
			" with %.2f requeues; watchdog bound %.0fs fired %.2f escalations/run;\n"+
			" mean makespan %.2fh, peak aggregate allocation %.2f GB/s never exceeds the live ceiling)\n",
		values["brownouts"], values["brownout-s"], faults.BlackoutProb, values["drain-outages"],
		values["tenant-crashes"], values["crash-requeues"],
		faults.StarvationEscalationSeconds, values["escalations"],
		values["makespan-h"], sum.PeakAllocGBs)
	return Result{Text: text, Values: values, Failed: sum.Failed}
}
