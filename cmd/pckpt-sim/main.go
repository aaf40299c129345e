// Command pckpt-sim runs one C/R-model simulation configuration and
// prints its averaged overhead breakdown — the basic unit of every
// experiment in the paper.
//
// Usage:
//
//	pckpt-sim -app CHIMERA -model P2 -runs 500
//	pckpt-sim -app XGC -model M2 -system "LANL System 18" -lead-scale 0.5
//	pckpt-sim -app CHIMERA -model M2 -tier app
//
// Runs default to the step tier — bit-identical to the app tier on
// every model, an order of magnitude faster. -tier selects another
// registered tier; -metrics meters whichever tier runs (the app and step
// tiers record the same sim.<model>.* series, the node tier its
// nodesim.<policy>.* equivalents).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"pckpt/internal/crmodel"
	"pckpt/internal/experiments"
	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/lm"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
	"pckpt/internal/tablefmt"
	"pckpt/internal/trace"
	"pckpt/internal/workload"
)

func main() {
	var (
		specPath  = flag.String("spec", "", "scenario spec JSON (see internal/scenario); runs its cohort × policy grid instead of the single flag-built configuration")
		cacheDir  = flag.String("cache", "", "runcache directory for -spec mode: cells resolve from the cache when present and are flushed to it when simulated")
		appName   = flag.String("app", "CHIMERA", "application from the Table I catalogue")
		modelName = flag.String("model", "P2", "C/R model: B, M1, M2, P1, P2")
		tierName  = flag.String("tier", "step", "simulation tier: "+strings.Join(experiments.TierNames(), ", ")+" (see DESIGN.md; -metrics meters whichever tier runs)")
		sysName   = flag.String("system", "OLCF Titan", "failure distribution from the Table III catalogue")
		runs      = flag.Int("runs", 200, "simulation runs to average")
		seed      = flag.Uint64("seed", 42, "base RNG seed")
		leadScale = flag.Float64("lead-scale", 1.0, "lead-time scale factor (1.1 = +10%)")
		fnRate    = flag.Float64("fn", failure.DefaultFNRate, "predictor false-negative rate")
		fpRate    = flag.Float64("fp", failure.DefaultFPRate, "predictor false-positive share")
		alpha     = flag.Float64("alpha", lm.DefaultAlpha, "LM transfer to checkpoint size ratio")
		baseline  = flag.Bool("baseline", true, "also run model B and print reductions")
		showTrace = flag.Bool("trace", false, "trace one run (the base seed) and print its timeline summary")

		injBB      = flag.Float64("inject-bb", 0, "degraded platform: BB checkpoint-write failure probability")
		injPFS     = flag.Float64("inject-pfs", 0, "degraded platform: PFS write failure probability")
		injCorrupt = flag.Float64("inject-corrupt", 0, "degraded platform: silent checkpoint-corruption probability per commit")
		injRestart = flag.Float64("inject-restart", 0, "degraded platform: restart-attempt failure probability")
		injCascade = flag.Float64("inject-cascade", 0, "degraded platform: secondary-failure probability per recovery window")
		injRetries = flag.Int("inject-retries", 0, "degraded platform: restart retry bound (0 = default)")
		injBackoff = flag.Float64("inject-backoff", 0, "degraded platform: base restart backoff seconds, doubling per attempt (0 = default)")

		mBrownRate  = flag.Float64("machine-brownout-rate", 0, "machine faults (-spec with machine block): PFS brownout windows per hour")
		mBrownMean  = flag.Float64("machine-brownout-mean", 0, "machine faults: mean brownout window seconds (0 = default)")
		mBlackout   = flag.Float64("machine-blackout-prob", 0, "machine faults: probability a brownout is a full blackout (ceiling zero)")
		mDrainRate  = flag.Float64("machine-drain-outage-rate", 0, "machine faults: drain-slot outages per hour")
		mDrainSlots = flag.Int("machine-drain-outage-slots", 0, "machine faults: drain slots removed per outage (0 = default)")
		mCrashRate  = flag.Float64("machine-crash-rate", 0, "machine faults: rack crashes per hour (tenants crash and requeue)")
		mCrashRetry = flag.Int("machine-crash-retries", 0, "machine faults: crash readmissions per job before the run truncates (0 = default)")
		mCrashBack  = flag.Float64("machine-crash-backoff", 0, "machine faults: base requeue backoff seconds, doubling per crash (0 = default)")
		mEscalate   = flag.Float64("machine-starve-escalation", 0, "machine faults: starvation-watchdog bound seconds (0 = watchdog off)")

		meter      = flag.Bool("metrics", false, "meter the runs and print the merged metrics summary")
		metricsOut = flag.String("metrics-out", "pckpt-metrics.json", "metrics snapshot JSON path (with -metrics)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	set := explicitFlags()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		exitOn(err)
		exitOn(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer writeMemProfile(*memProfile)

	tier, ok := experiments.TierByName(*tierName)
	if !ok {
		exitOn(fmt.Errorf("pckpt-sim: unknown tier %q (have %s)", *tierName, strings.Join(experiments.TierNames(), ", ")))
	}

	if *specPath != "" {
		// Spec mode: the spec declares everything; explicitly set flags
		// override its numeric plan, conflicting selectors error out.
		exitOn(runSpec(*specPath, *cacheDir, tier, specOverrides{
			set:        set,
			model:      *modelName,
			runs:       *runs,
			seed:       *seed,
			leadScale:  *leadScale,
			fn:         *fnRate,
			fp:         *fpRate,
			alpha:      *alpha,
			injBB:      *injBB,
			injPFS:     *injPFS,
			injCorrupt: *injCorrupt,
			injRestart: *injRestart,
			injCascade: *injCascade,
			injBackoff: *injBackoff,
			injRetries: *injRetries,

			mBrownRate:    *mBrownRate,
			mBrownMean:    *mBrownMean,
			mBlackout:     *mBlackout,
			mDrainRate:    *mDrainRate,
			mDrainSlots:   *mDrainSlots,
			mCrashRate:    *mCrashRate,
			mCrashRetries: *mCrashRetry,
			mCrashBack:    *mCrashBack,
			mEscalate:     *mEscalate,
		}))
		return
	}
	if *cacheDir != "" {
		exitOn(fmt.Errorf("pckpt-sim: -cache requires -spec (flag mode always simulates)"))
	}
	for _, name := range machineFlags {
		if set[name] {
			exitOn(fmt.Errorf("pckpt-sim: -%s requires -spec with a machine block (machine faults degrade a shared machine, not a solo run)", name))
		}
	}

	app, err := workload.ByName(*appName)
	exitOn(err)
	model, err := crmodel.ModelByName(*modelName)
	exitOn(err)
	sys, err := failure.SystemByName(*sysName)
	exitOn(err)
	if !tier.Supports(model) {
		exitOn(fmt.Errorf("pckpt-sim: the %s tier does not implement model %s", tier.Name, model))
	}

	cfg := crmodel.Config{
		Model: model,
		Config: platform.Config{
			App:       app,
			System:    sys,
			LM:        lm.Default().WithAlpha(*alpha),
			LeadScale: *leadScale,
			FNRate:    *fnRate,
			FPRate:    *fpRate,
			Faults: faultinject.Config{
				BBWriteFailProb:       *injBB,
				PFSWriteFailProb:      *injPFS,
				CorruptProb:           *injCorrupt,
				RestartFailProb:       *injRestart,
				CascadeProb:           *injCascade,
				RestartRetries:        *injRetries,
				RestartBackoffSeconds: *injBackoff,
			},
		},
	}
	exitOn(cfg.Validate())

	fmt.Printf("%s on %s under %s (%s tier, %d runs, seed %d)\n", model, app, sys.Name, tier.Name, *runs, *seed)
	fmt.Printf("θ = %.2f s, σ = %.3f, per-node checkpoint = %.2f GB\n\n", cfg.Theta(), cfg.Sigma(), app.PerNodeGB())

	// All tiers route through the shared tier runner: identical seed
	// sequences, so switching -tier changes the engine, not the
	// experiment (and for -tier step, not even the bits — metrics
	// included).
	agg, snap := experiments.SimulateSweepN(tier, model, cfg.Config, *runs, *seed, runtime.GOMAXPROCS(0), 0, *meter)
	mo := agg.MeanOverheads()

	if *showTrace {
		var buf trace.Buffer
		switch tier.Name {
		case "app":
			tcfg := cfg
			tcfg.Trace = &buf
			crmodel.Simulate(tcfg, *seed)
		case "step":
			stepsim.Simulate(stepsim.Config{Model: model, Config: cfg.Config, Trace: &buf}, *seed)
		default:
			exitOn(fmt.Errorf("pckpt-sim: -trace supports the app and step tiers, not %s", tier.Name))
		}
		fmt.Println("single-run timeline (seed", *seed, "):")
		fmt.Println(buf.Gantt(100))
		fmt.Println()
		fmt.Print(buf.Summary())
		fmt.Println()
	}

	t := tablefmt.NewTable("metric", "value")
	t.AddRow("checkpoint overhead", tablefmt.Hours(mo.Checkpoint))
	t.AddRow("recomputation overhead", tablefmt.Hours(mo.Recompute))
	t.AddRow("recovery overhead", tablefmt.Hours(mo.Recovery))
	t.AddRow("total overhead", tablefmt.Hours(mo.Total()))
	t.AddRow("mean wall time", tablefmt.Hours(agg.MeanWallSeconds()))
	t.AddRow("FT ratio", fmt.Sprintf("%.3f", agg.MeanFTRatio()))
	if cfg.Faults.Enabled() {
		fc := agg.FaultTotals()
		t.AddRow("injected write failures", fmt.Sprint(fc.BBWriteFailures+fc.PFSWriteFailures))
		t.AddRow("corrupt-generation fallbacks", fmt.Sprint(fc.CorruptRestarts))
		t.AddRow("restart retries", fmt.Sprint(fc.RestartRetries))
		t.AddRow("recovery cascades", fmt.Sprint(fc.Cascades))
	}
	s := agg.TotalSummary()
	t.AddRow("total overhead 95% CI", fmt.Sprintf("[%s, %s]", tablefmt.Hours(s.CI95Lo), tablefmt.Hours(s.CI95Hi)))
	fmt.Println(t.String())
	warnFailed(agg.Failed())

	if *baseline && model != crmodel.ModelB {
		// Every tier implements model B, so the reduction is computed
		// within the selected tier.
		baseAgg, _ := experiments.SimulateSweepN(tier, crmodel.ModelB, cfg.Config, *runs, *seed, runtime.GOMAXPROCS(0), 0, false)
		base := baseAgg.MeanOverheads()
		ck, rc, rv, tot := stats.ReductionBreakdown(base, mo)
		fmt.Printf("vs base model B: checkpoint %s, recomputation %s, recovery %s, TOTAL %s\n",
			tablefmt.Percent(ck), tablefmt.Percent(rc), tablefmt.Percent(rv), tablefmt.Percent(tot))
	}

	if snap != nil {
		fmt.Printf("\nsimulation metrics (%d runs merged):\n\n%s", *runs, metrics.Render(snap))
		exitOn(snap.WriteJSON(*metricsOut))
		fmt.Printf("metrics snapshot written to %s\n", *metricsOut)
	}
}

// warnFailed reports each run of a sweep that panicked instead of
// completing; the printed means cover only the completed runs.
func warnFailed(failed []stats.FailedRun) {
	for _, f := range failed {
		fmt.Fprintf(os.Stderr, "warning: run with seed %d failed (%s): %s\n", f.Seed, f.Config, f.Err)
	}
}

// writeMemProfile dumps the post-GC heap; deferred so it sees the whole
// invocation's live set.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	exitOn(err)
	defer f.Close()
	runtime.GC()
	exitOn(pprof.WriteHeapProfile(f))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}
