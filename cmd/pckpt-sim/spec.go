package main

import (
	"flag"
	"fmt"
	"runtime"

	"pckpt/internal/experiments"
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

// specOverridable documents the precedence rule for everything else: the
// spec wins over flag *defaults*, but an explicitly set flag overrides
// the spec's field (detected via flag.Visit, so `-runs 200` overrides
// even when 200 is also the flag default).
type specOverrides struct {
	set map[string]bool

	model     string
	runs      int
	seed      uint64
	leadScale float64
	fn, fp    float64
	alpha     float64

	injBB, injPFS, injCorrupt, injRestart, injCascade, injBackoff float64
	injRetries                                                    int

	mBrownRate, mBrownMean, mBlackout, mDrainRate, mCrashRate, mCrashBack, mEscalate float64
	mDrainSlots, mCrashRetries                                                       int
}

// explicitFlags records which flags the command line actually set.
func explicitFlags() map[string]bool {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// applyOverrides folds explicitly set flags into the loaded spec. The
// spec from Load is already normalized, so every block pointer is
// non-nil except Faults — and the result is deliberately NOT
// re-normalized: an explicit zero (`-seed 0`) must stay zero, exactly
// as it would in flag mode, not snap back to the spec default.
func applyOverrides(s *scenario.Spec, ov specOverrides) *scenario.Spec {
	if ov.set["model"] {
		s.Policies = []string{ov.model}
	}
	if ov.set["runs"] {
		s.Runs = ov.runs
	}
	if ov.set["seed"] {
		s.Seed = ov.seed
	}
	if ov.set["lead-scale"] {
		s.Platform.LeadScale = ov.leadScale
	}
	if ov.set["fn"] {
		s.Platform.FNRate = ov.fn
	}
	if ov.set["fp"] {
		s.Platform.FPRate = ov.fp
	}
	if ov.set["alpha"] {
		s.Platform.LMAlpha = ov.alpha
	}
	inject := func(name string, apply func(*scenario.FaultSpec)) {
		if !ov.set[name] {
			return
		}
		if s.Platform.Faults == nil {
			s.Platform.Faults = &scenario.FaultSpec{}
		}
		apply(s.Platform.Faults)
	}
	inject("inject-bb", func(f *scenario.FaultSpec) { f.BBWriteFailProb = ov.injBB })
	inject("inject-pfs", func(f *scenario.FaultSpec) { f.PFSWriteFailProb = ov.injPFS })
	inject("inject-corrupt", func(f *scenario.FaultSpec) { f.CorruptProb = ov.injCorrupt })
	inject("inject-restart", func(f *scenario.FaultSpec) { f.RestartFailProb = ov.injRestart })
	inject("inject-cascade", func(f *scenario.FaultSpec) { f.CascadeProb = ov.injCascade })
	inject("inject-retries", func(f *scenario.FaultSpec) { f.RestartRetries = ov.injRetries })
	inject("inject-backoff", func(f *scenario.FaultSpec) { f.RestartBackoffSeconds = ov.injBackoff })
	if s.Machine != nil {
		minject := func(name string, apply func(*scenario.MachineFaultSpec)) {
			if !ov.set[name] {
				return
			}
			if s.Machine.Faults == nil {
				s.Machine.Faults = &scenario.MachineFaultSpec{}
			}
			apply(s.Machine.Faults)
		}
		minject("machine-brownout-rate", func(f *scenario.MachineFaultSpec) { f.BrownoutRatePerHour = ov.mBrownRate })
		minject("machine-brownout-mean", func(f *scenario.MachineFaultSpec) { f.BrownoutMeanSeconds = ov.mBrownMean })
		minject("machine-blackout-prob", func(f *scenario.MachineFaultSpec) { f.BlackoutProb = ov.mBlackout })
		minject("machine-drain-outage-rate", func(f *scenario.MachineFaultSpec) { f.DrainOutageRatePerHour = ov.mDrainRate })
		minject("machine-drain-outage-slots", func(f *scenario.MachineFaultSpec) { f.DrainOutageSlots = ov.mDrainSlots })
		minject("machine-crash-rate", func(f *scenario.MachineFaultSpec) { f.CrashRatePerHour = ov.mCrashRate })
		minject("machine-crash-retries", func(f *scenario.MachineFaultSpec) { f.CrashMaxRetries = ov.mCrashRetries })
		minject("machine-crash-backoff", func(f *scenario.MachineFaultSpec) { f.CrashBackoffSeconds = ov.mCrashBack })
		minject("machine-starve-escalation", func(f *scenario.MachineFaultSpec) { f.StarvationEscalationSeconds = ov.mEscalate })
	}
	return s
}

// machineFlags are the -machine-* overrides; they only mean something
// for a spec with a machine block.
var machineFlags = []string{
	"machine-brownout-rate", "machine-brownout-mean", "machine-blackout-prob",
	"machine-drain-outage-rate", "machine-drain-outage-slots",
	"machine-crash-rate", "machine-crash-retries", "machine-crash-backoff",
	"machine-starve-escalation",
}

// runSpec executes one scenario spec: every cohort × policy cell
// simulates with the spec's run/seed plan (matching the flag path's seed
// usage exactly, so a spec mirroring a flag invocation is bit-identical
// to it), optionally resolving cells from a runcache directory first.
// Cells run on the step tier, so their tier-agnostic cache keys hold.
func runSpec(path, cacheDir string, ov specOverrides) error {
	for _, name := range specConflicts {
		if ov.set[name] {
			return fmt.Errorf("pckpt-sim: -%s conflicts with -spec: the spec declares the cohort, failure source, and output plan, and its cells run on the step tier; override its numbers with -runs/-seed/-model/-lead-scale/-fn/-fp/-alpha/-inject-*", name)
		}
	}
	s, err := scenario.Load(path)
	if err != nil {
		return err
	}
	if s.Machine == nil {
		for _, name := range machineFlags {
			if ov.set[name] {
				return fmt.Errorf("pckpt-sim: -%s needs a spec with a machine block (the machine-fault plan degrades a shared machine, not a solo run)", name)
			}
		}
	}
	s = applyOverrides(s, ov)
	if s.Machine != nil {
		return runMachineSpec(s, cacheDir)
	}
	cfgs, err := s.Configs()
	if err != nil {
		return err
	}

	var store *runcache.Store
	if cacheDir != "" {
		if store, err = runcache.Open(cacheDir); err != nil {
			return err
		}
	}

	fmt.Printf("scenario %s: %d configurations (%d runs each, seed %d)\n", s.Name, len(cfgs), s.Runs, s.Seed)
	if s.Description != "" {
		fmt.Println(s.Description)
	}
	fmt.Println()

	// Baseline totals per cohort label, for the "vs B" column.
	baseline := map[string]stats.Overheads{}
	aggs := make([]*stats.Agg, len(cfgs))
	for i, rc := range cfgs {
		agg, err := runSpecCell(s, rc, store)
		if err != nil {
			return err
		}
		aggs[i] = agg
		warnFailed(agg.Failed())
		if rc.Policy == policy.B {
			baseline[rc.Label] = agg.MeanOverheads()
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

	if store != nil {
		st := store.Totals()
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
	warnFailed(sum.Failed)
	return nil
}

// runSpecCell resolves one cell: from the cache when possible, by
// simulation otherwise. The cell uses the spec's base seed directly for
// every configuration — the same contract as the flag mode, where the
// model run and its B baseline share -seed. Simulation runs through the
// sweep runner on the step tier, which TestCrossValidationSweepCells
// audits against the app-tier reference on every example spec's cells.
func runSpecCell(s *scenario.Spec, rc scenario.RunConfig, store *runcache.Store) (*stats.Agg, error) {
	key := runcache.Key{
		Experiment:  "pckpt-sim",
		Label:       s.Name + "|" + rc.Label,
		Policy:      rc.Policy.String(),
		Platform:    rc.Platform.CanonicalString(),
		Runs:        s.Runs,
		Seed:        s.Seed,
		Fingerprint: runcache.Fingerprint(),
	}
	if store != nil {
		if agg, _, ok := store.Get(key, false); ok {
			return agg, nil
		}
	}
	agg, _ := experiments.SimulateSweepN(experiments.StepTier(), rc.Policy, rc.Platform, s.Runs, s.Seed,
		runtime.GOMAXPROCS(0), false)
	if store != nil {
		if err := store.Put(key, agg, nil); err != nil {
			return nil, err
		}
	}
	return agg, nil
}
