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
// nodesim.<policy>.* equivalents). -spec cells always run on the step
// tier, so -spec rejects -tier.
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
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
	"pckpt/internal/tablefmt"
	"pckpt/internal/trace"
	"pckpt/internal/workload"
)

// options is the command line: every flag of both modes, and flag
// mode's fault plan bound to the -inject-* flags.
type options struct {
	spec, cache, app, model, tier, system string
	runs                                  int
	seed                                  uint64
	leadScale, fn, fp, alpha              float64
	baseline, trace, metrics              bool
	metricsOut, cpuProfile, memProfile    string
	faults                                faultinject.Config
}

// bindOptions binds every flag on fs. The -machine-* flags write a plan
// nothing reads: flag mode rejects them, and spec mode re-applies them
// by name onto the spec's machine plan (see applyOverrides).
func bindOptions(fs *flag.FlagSet) *options {
	o := new(options)
	fs.StringVar(&o.spec, "spec", "", "scenario spec JSON (see internal/scenario); runs its cohort × policy grid instead of the single flag-built configuration")
	fs.StringVar(&o.cache, "cache", "", "runcache directory for -spec mode: cells resolve from the cache when present and are flushed to it when simulated")
	fs.StringVar(&o.app, "app", "CHIMERA", "application from the Table I catalogue")
	fs.StringVar(&o.model, "model", "P2", "C/R model: B, M1, M2, P1, P2")
	fs.StringVar(&o.tier, "tier", "step", "simulation tier: "+strings.Join(experiments.TierNames(), ", ")+" (see DESIGN.md; -metrics meters whichever tier runs)")
	fs.StringVar(&o.system, "system", "OLCF Titan", "failure distribution from the Table III catalogue")
	fs.IntVar(&o.runs, "runs", 200, "simulation runs to average")
	fs.Uint64Var(&o.seed, "seed", 42, "base RNG seed")
	fs.Float64Var(&o.leadScale, "lead-scale", 1.0, "lead-time scale factor (1.1 = +10%); must be positive")
	fs.Float64Var(&o.fn, "fn", failure.DefaultFNRate, "predictor false-negative rate; must be positive (a spec's perfect_predictor runs a zero-error predictor)")
	fs.Float64Var(&o.fp, "fp", failure.DefaultFPRate, "predictor false-positive share; must be positive (a spec's perfect_predictor runs a zero-error predictor)")
	fs.Float64Var(&o.alpha, "alpha", lm.DefaultAlpha, "LM transfer to checkpoint size ratio")
	fs.BoolVar(&o.baseline, "baseline", true, "also run model B and print reductions")
	fs.BoolVar(&o.trace, "trace", false, "trace one run (the base seed) and print its timeline summary")
	o.faults.BindFlags(fs)
	new(faultinject.MachineConfig).BindFlags(fs)
	fs.BoolVar(&o.metrics, "metrics", false, "meter the runs and print the merged metrics summary")
	fs.StringVar(&o.metricsOut, "metrics-out", "pckpt-metrics.json", "metrics snapshot JSON path (with -metrics)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	return o
}

// checkPositive rejects a zero or negative -fn, -fp or -lead-scale in
// either mode: platform.Config reads 0 as "use the default", so a typed
// 0 would silently run 0.125, 0.18 or 1. NaN and Inf pass here and fail
// platform validation, which names the field.
func (o *options) checkPositive() error {
	const perfect = `; for a zero-error predictor set "perfect_predictor": true in a -spec platform block`
	switch {
	case o.fn <= 0:
		return fmt.Errorf("pckpt-sim: -fn must be positive, got %v (0 selects the default %v)%s", o.fn, failure.DefaultFNRate, perfect)
	case o.fp <= 0:
		return fmt.Errorf("pckpt-sim: -fp must be positive, got %v (0 selects the default %v)%s", o.fp, failure.DefaultFPRate, perfect)
	case o.leadScale <= 0:
		return fmt.Errorf("pckpt-sim: -lead-scale must be positive, got %v (0 selects the default 1)", o.leadScale)
	}
	return nil
}

// config builds flag mode's configuration: the Table I application under
// the Table III failure distribution, with the predictor, lead-time, LM
// and fault-plan flags as given. It is not yet validated.
func (o *options) config() (crmodel.Config, error) {
	app, err := workload.ByName(o.app)
	if err != nil {
		return crmodel.Config{}, err
	}
	model, err := policy.ByName(o.model)
	if err != nil {
		return crmodel.Config{}, err
	}
	sys, err := failure.SystemByName(o.system)
	if err != nil {
		return crmodel.Config{}, err
	}
	return crmodel.Config{
		Model: model,
		Config: platform.Config{
			App:       app,
			System:    sys,
			LM:        lm.Default().WithAlpha(o.alpha),
			LeadScale: o.leadScale,
			FNRate:    o.fn,
			FPRate:    o.fp,
			Faults:    o.faults,
		},
	}, nil
}

func main() {
	o := bindOptions(flag.CommandLine)
	flag.Parse()
	// Checked before either mode: in spec mode -runs overrides the
	// normalized spec, so 0 would not fall back to the spec's default.
	if o.runs < 1 {
		exitOn(fmt.Errorf("pckpt-sim: -runs must be at least 1, got %d", o.runs))
	}
	exitOn(o.checkPositive())

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		exitOn(err)
		exitOn(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer writeMemProfile(o.memProfile)

	tier, ok := experiments.TierByName(o.tier)
	if !ok {
		exitOn(fmt.Errorf("pckpt-sim: unknown tier %q (have %s)", o.tier, strings.Join(experiments.TierNames(), ", ")))
	}

	if o.spec != "" {
		// Spec mode: the spec declares everything; explicitly set flags
		// override its numeric plan, conflicting selectors error out.
		exitOn(runSpec(o.spec, o.cache, flag.CommandLine))
		return
	}
	if o.cache != "" {
		exitOn(fmt.Errorf("pckpt-sim: -cache requires -spec (flag mode always simulates)"))
	}
	if name := machineFlag(flag.CommandLine); name != "" {
		exitOn(fmt.Errorf("pckpt-sim: -%s requires -spec with a machine block (machine faults degrade a shared machine, not a solo run)", name))
	}

	cfg, err := o.config()
	exitOn(err)
	model := cfg.Model
	if !tier.Supports(model) {
		exitOn(fmt.Errorf("pckpt-sim: the %s tier does not implement model %s", tier.Name, model))
	}
	if o.trace && tier.Name != "app" && tier.Name != "step" {
		exitOn(fmt.Errorf("pckpt-sim: -trace supports the app and step tiers, not %s", tier.Name))
	}
	exitOn(cfg.Validate())

	fmt.Printf("%s on %s under %s (%s tier, %d runs, seed %d)\n", model, cfg.App, cfg.System.Name, tier.Name, o.runs, o.seed)
	fmt.Printf("θ = %.2f s, σ = %.3f, per-node checkpoint = %.2f GB\n\n", cfg.Theta(), model.Sigma(cfg.Derive()), cfg.App.PerNodeGB())

	// All tiers route through the shared tier runner: identical seed
	// sequences, so switching -tier changes the engine, not the
	// experiment (and for -tier step, not even the bits — metrics
	// included).
	agg, snap := experiments.SimulateSweepN(tier, model, cfg.Config, o.runs, o.seed, runtime.GOMAXPROCS(0), o.metrics)
	mo := agg.MeanOverheads()

	if o.trace {
		var buf trace.Buffer
		switch tier.Name {
		case "app":
			tcfg := cfg
			tcfg.Trace = &buf
			crmodel.Simulate(tcfg, o.seed)
		case "step":
			stepsim.Simulate(stepsim.Config{Model: model, Config: cfg.Config, Trace: &buf}, o.seed)
		}
		fmt.Println("single-run timeline (seed", o.seed, "):")
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
	experiments.WarnFailed(agg.Failed())

	if o.baseline && model != policy.B {
		// Every tier implements model B, so the reduction is computed
		// within the selected tier.
		baseAgg, _ := experiments.SimulateSweepN(tier, policy.B, cfg.Config, o.runs, o.seed, runtime.GOMAXPROCS(0), false)
		base := baseAgg.MeanOverheads()
		ck, rc, rv, tot := stats.ReductionBreakdown(base, mo)
		fmt.Printf("vs base model B: checkpoint %s, recomputation %s, recovery %s, TOTAL %s\n",
			tablefmt.Percent(ck), tablefmt.Percent(rc), tablefmt.Percent(rv), tablefmt.Percent(tot))
	}

	if snap != nil {
		fmt.Printf("\nsimulation metrics (%d runs merged):\n\n%s", o.runs, metrics.Render(snap))
		exitOn(snap.WriteJSON(o.metricsOut))
		fmt.Printf("metrics snapshot written to %s\n", o.metricsOut)
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
