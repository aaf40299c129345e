package main

import (
	"flag"
	"fmt"
	"runtime"

	"pckpt/internal/experiments"
	"pckpt/internal/faultinject"
	"pckpt/internal/machine"
	"pckpt/internal/policy"
	"pckpt/internal/runcache"
	"pckpt/internal/scenario"
	"pckpt/internal/stats"
	"pckpt/internal/tablefmt"
)

// specConflicts are flags that select what the spec itself declares — the
// cohort, the failure source, the run shape of the flag mode — or that
// spec mode does not honour: spec cells always run on the step tier.
// Combining them with -spec is ambiguous, so it is an error rather than a
// silent precedence pick.
var specConflicts = []string{"app", "system", "tier", "baseline", "trace", "metrics", "metrics-out"}

// explicitFlags records which flags of fs the command line actually set.
func explicitFlags(fs *flag.FlagSet) map[string]bool {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// applyOverrides folds the flags the command line set explicitly on fs
// into the loaded spec: the spec wins over flag *defaults*, but an
// explicitly set flag overrides the spec's field (detected via Visit, so
// `-runs 200` overrides even when 200 is also the flag default). The
// spec from Load is already normalized, so every block pointer is
// non-nil except the fault plans — and the result is deliberately NOT
// re-normalized: an explicit zero (`-seed 0`) must stay zero, exactly
// as it would in flag mode, not snap back to the spec default.
func applyOverrides(s *scenario.Spec, fs *flag.FlagSet) (*scenario.Spec, error) {
	fs.Visit(func(f *flag.Flag) {
		v := f.Value.(flag.Getter).Get()
		switch f.Name {
		case "model":
			s.Policies = []string{v.(string)}
		case "runs":
			s.Runs = v.(int)
		case "seed":
			s.Seed = v.(uint64)
		case "lead-scale":
			s.Platform.LeadScale = v.(float64)
		case "fn":
			s.Platform.FNRate = v.(float64)
		case "fp":
			s.Platform.FPRate = v.(float64)
		case "alpha":
			s.Platform.LMAlpha = v.(float64)
		}
	})
	var faults faultinject.Config
	if s.Platform.Faults != nil {
		faults = *s.Platform.Faults
	}
	if set, err := reapply(fs, faults.BindFlags); err != nil {
		return nil, err
	} else if set {
		s.Platform.Faults = &faults
	}
	if s.Machine != nil {
		var mfaults faultinject.MachineConfig
		if s.Machine.Faults != nil {
			mfaults = *s.Machine.Faults
		}
		if set, err := reapply(fs, mfaults.BindFlags); err != nil {
			return nil, err
		} else if set {
			s.Machine.Faults = &mfaults
		}
	}
	return s, nil
}

// reapply binds a fault plan's flags on a throwaway FlagSet and sets on
// it, by name, each one the command line set on fs: the plan takes
// exactly the given values and keeps every other field. It reports
// whether any was set.
func reapply(fs *flag.FlagSet, bind func(*flag.FlagSet)) (set bool, err error) {
	plan := flag.NewFlagSet("plan", flag.ContinueOnError)
	bind(plan)
	fs.Visit(func(f *flag.Flag) {
		if err == nil && plan.Lookup(f.Name) != nil {
			set, err = true, plan.Set(f.Name, f.Value.String())
		}
	})
	return set, err
}

// machineFlag names the first -machine-* flag set on fs, or "" if none
// is: those flags only mean something for a spec with a machine block.
func machineFlag(fs *flag.FlagSet) (name string) {
	plan := flag.NewFlagSet("machine", flag.ContinueOnError)
	new(faultinject.MachineConfig).BindFlags(plan)
	fs.Visit(func(f *flag.Flag) {
		if name == "" && plan.Lookup(f.Name) != nil {
			name = f.Name
		}
	})
	return name
}

// runSpec executes one scenario spec: its cohort × policy cells resolve
// as one plan through experiments.ResolveCells with the spec's run/seed
// plan (matching the flag path's seed usage exactly, so a spec mirroring
// a flag invocation is bit-identical to it), optionally from a runcache
// directory. Cells run on the step tier, so their tier-agnostic cache
// keys hold; TestCrossValidationSweepCells audits that tier against the
// app-tier reference on every example spec's cells.
func runSpec(path, cacheDir string, fs *flag.FlagSet) error {
	set := explicitFlags(fs)
	for _, name := range specConflicts {
		if set[name] {
			return fmt.Errorf("pckpt-sim: -%s conflicts with -spec: the spec declares the cohort, failure source, and output plan, and its cells run on the step tier; override its numbers with -runs/-seed/-model/-lead-scale/-fn/-fp/-alpha/-inject-*", name)
		}
	}
	s, err := scenario.Load(path)
	if err != nil {
		return err
	}
	if name := machineFlag(fs); name != "" && s.Machine == nil {
		return fmt.Errorf("pckpt-sim: -%s needs a spec with a machine block (the machine-fault plan degrades a shared machine, not a solo run)", name)
	}
	if s, err = applyOverrides(s, fs); err != nil {
		return err
	}
	if s.Machine != nil {
		return runMachineSpec(s, cacheDir)
	}
	cfgs, err := s.Configs()
	if err != nil {
		return err
	}

	// The cell uses the spec's base seed directly for every
	// configuration: the same contract as flag mode, where the model run
	// and its B baseline share -seed.
	p := experiments.Params{Experiment: "pckpt-sim", Seed: s.Seed}
	if cacheDir != "" {
		if p.Cache, err = runcache.Open(cacheDir); err != nil {
			return err
		}
	}

	fmt.Printf("scenario %s: %d configurations (%d runs each, seed %d)\n", s.Name, len(cfgs), s.Runs, s.Seed)
	if s.Description != "" {
		fmt.Println(s.Description)
	}
	fmt.Println()

	cells := make([]experiments.Cell, len(cfgs))
	for i, rc := range cfgs {
		cells[i] = experiments.Cell{
			Tier: experiments.StepTier(), Label: s.Name + "|" + rc.Label,
			Policy: rc.Policy, Platform: rc.Platform, Runs: s.Runs, Seed: s.Seed,
		}
	}
	aggs, err := experiments.ResolveCells(p, cells)
	if err != nil {
		return err
	}
	// Baseline totals per cohort label, for the "vs B" column.
	baseline := map[string]stats.Overheads{}
	for i, rc := range cfgs {
		experiments.WarnFailed(aggs[i].Failed())
		if rc.Policy == policy.B {
			baseline[rc.Label] = aggs[i].MeanOverheads()
		}
	}

	t := tablefmt.NewTable("Config", "Model", "Ckpt", "Recomp", "Recov", "Total", "Wall", "FT", "vs B")
	for i, rc := range cfgs {
		agg := aggs[i]
		mo := agg.MeanOverheads()
		vsB := "-"
		if base, ok := baseline[rc.Label]; ok && rc.Policy != policy.B {
			_, _, _, tot := stats.ReductionBreakdown(base, mo)
			vsB = tablefmt.Percent(tot)
		}
		t.AddRow(rc.Label, rc.Policy.String(),
			tablefmt.Hours(mo.Checkpoint), tablefmt.Hours(mo.Recompute), tablefmt.Hours(mo.Recovery),
			tablefmt.Hours(mo.Total()), tablefmt.Hours(agg.MeanWallSeconds()),
			fmt.Sprintf("%.3f", agg.MeanFTRatio()), vsB)
	}
	fmt.Println(t.String())

	if p.Cache != nil {
		st := p.Cache.Totals()
		fmt.Printf("cache: %d hits, %d misses\n", st.Hits, st.Misses)
	}
	return nil
}

// runMachineSpec executes a spec with a machine block: the cohort ×
// policy cells become tenants of one shared machine (node pool, PFS
// bandwidth ceiling, drain slots), and the report is per-tenant slowdown
// versus the same cell run solo, admission queue wait, and bandwidth
// starvation, averaged over the spec's runs. Machine results are whole-
// cohort outcomes rather than per-cell aggregates, so the runcache does
// not apply.
func runMachineSpec(s *scenario.Spec, cacheDir string) error {
	cfg, err := s.MachineConfig()
	if err != nil {
		return err
	}
	cfgs, err := s.Configs()
	if err != nil {
		return err
	}
	if cacheDir != "" {
		fmt.Println("note: -cache ignored for machine specs (results are whole-cohort, not per-cell)")
	}
	fmt.Printf("scenario %s: machine with %d tenants (%d runs, seed %d)\n", s.Name, len(cfg.Jobs), s.Runs, s.Seed)
	if s.Description != "" {
		fmt.Println(s.Description)
	}
	fmt.Println()

	sum := machine.Sweep(cfg, s.Runs, s.Seed, runtime.GOMAXPROCS(0))

	// Truncations and per-tenant fault counts are part of the outcome —
	// a tenant that gave up after its crash-retry budget, or truncated on
	// spare exhaustion, must not be read as a completed run.
	t := tablefmt.NewTable("Tenant", "Model", "Arrive(s)", "Wall(h)", "Slowdown(x)", "QueueWait(s)", "Starve(s)", "Crashes", "Trunc(frac)")
	for i, a := range sum.Jobs {
		t.AddRow(cfgs[i].Label, cfgs[i].Policy.String(),
			fmt.Sprintf("%.0f", cfg.Jobs[i].ArrivalSeconds),
			tablefmt.Hours(sum.Mean(a.WallSeconds)),
			fmt.Sprintf("%.3f", sum.Mean(a.SlowdownX)),
			fmt.Sprintf("%.1f", sum.Mean(a.QueueWaitSeconds)),
			fmt.Sprintf("%.1f", sum.Mean(a.StarvationSeconds)),
			fmt.Sprintf("%.2f", sum.Mean(float64(a.Crashes))),
			fmt.Sprintf("%.2f", sum.Mean(float64(a.Truncated))))
	}
	fmt.Println(t.String())
	fmt.Printf("mean makespan %s, peak aggregate PFS allocation %.2f GB/s\n",
		tablefmt.Hours(sum.Mean(sum.MakespanSeconds)), sum.PeakAllocGBs)
	if cfg.Faults.Enabled() {
		fmt.Printf("machine faults per run: %.2f brownouts (%.0fs), %.2f drain outages, %.2f tenant crashes, %.2f requeues, %.2f starvation escalations\n",
			sum.Mean(float64(sum.Brownouts)), sum.Mean(sum.BrownoutSeconds), sum.Mean(float64(sum.DrainOutages)),
			sum.Mean(float64(sum.TenantCrashes)), sum.Mean(float64(sum.CrashRequeues)), sum.Mean(float64(sum.Escalations)))
	}
	experiments.WarnFailed(sum.Failed)
	return nil
}
