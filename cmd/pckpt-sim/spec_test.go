package main

import (
	"flag"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pckpt/internal/experiments"
	"pckpt/internal/failure"
	"pckpt/internal/lm"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/scenario"
	"pckpt/internal/workload"
)

// The committed chimera-titan example must be bit-identical to the flag
// invocation it documents: `pckpt-sim -app CHIMERA -model P2` builds
// exactly this platform config and simulates with the same base seed for
// the model and its B baseline.
func TestChimeraTitanSpecMatchesFlagRun(t *testing.T) {
	s, err := scenario.Load("../../examples/scenarios/chimera-titan.json")
	if err != nil {
		t.Fatal(err)
	}
	s.Runs = 3 // keep the test fast; the seed plan is what is under test
	cfgs, err := s.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 || cfgs[0].Policy.String() != "B" || cfgs[1].Policy.String() != "P2" {
		t.Fatalf("unexpected grid: %+v", cfgs)
	}

	// The exact construction in main(): default flags, Table I CHIMERA,
	// Titan catalogue entry, default LM alpha and predictor rates.
	app, err := workload.ByName("CHIMERA")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := failure.SystemByName("OLCF Titan")
	if err != nil {
		t.Fatal(err)
	}
	flagCfg := platform.Config{
		App:       app,
		System:    sys,
		LM:        lm.Default().WithAlpha(lm.DefaultAlpha),
		LeadScale: 1.0,
		FNRate:    failure.DefaultFNRate,
		FPRate:    failure.DefaultFPRate,
	}

	n := s.Normalize()
	for i, model := range []policy.ID{policy.B, policy.P2} {
		if got, want := cfgs[i].Platform.CanonicalString(), flagCfg.CanonicalString(); got != want {
			t.Fatalf("spec platform renders differently from the flag twin:\n%s\nvs\n%s", got, want)
		}
		specAgg, _ := experiments.SimulateSweepN(experiments.StepTier(), cfgs[i].Policy, cfgs[i].Platform, n.Runs, n.Seed, 2, false)
		flagAgg, _ := experiments.SimulateSweepN(experiments.StepTier(), model, flagCfg, 3, 42, 2, false)
		if !reflect.DeepEqual(specAgg.Runs(), flagAgg.Runs()) {
			t.Fatalf("%s: spec runs diverge from flag runs", model)
		}
	}
}

// parseFlags parses args with pckpt-sim's own flags into a fresh
// FlagSet, as main does on the command line.
func parseFlags(t *testing.T, args ...string) (*options, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("pckpt-sim", flag.ContinueOnError)
	o := bindOptions(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o, fs
}

// loadSpec loads one committed example spec.
func loadSpec(t *testing.T, name string) *scenario.Spec {
	t.Helper()
	s, err := scenario.Load("../../examples/scenarios/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Explicitly set flags override spec fields; conflicting selectors error.
func TestSpecOverridesAndConflicts(t *testing.T) {
	s := loadSpec(t, "chimera-titan.json")
	_, fs := parseFlags(t, "-model", "M2", "-runs", "7", "-seed", "5", "-lead-scale", "1.3", "-inject-pfs", "0.04")
	out, err := applyOverrides(s, fs)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Policies; len(got) != 1 || got[0] != "M2" {
		t.Fatalf("-model did not restrict the policy list: %v", got)
	}
	if out.Runs != 7 || out.Seed != 5 {
		t.Fatalf("run plan not overridden: runs=%d seed=%d", out.Runs, out.Seed)
	}
	if out.Platform.LeadScale != 1.3 {
		t.Fatalf("lead scale not overridden: %v", out.Platform.LeadScale)
	}
	if out.Platform.Faults == nil || out.Platform.Faults.PFSWriteFailProb != 0.04 {
		t.Fatalf("fault injection not overridden: %+v", out.Platform.Faults)
	}
	if out.Platform.Faults.RestartRetries != 0 {
		t.Fatal("unset flag leaked into the spec")
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("overridden spec invalid: %v", err)
	}

	// An explicit zero override must survive: `-seed 0` means seed 0
	// (as in flag mode), not the spec default.
	_, fs = parseFlags(t, "-seed", "0")
	z, err := applyOverrides(loadSpec(t, "chimera-titan.json"), fs)
	if err != nil {
		t.Fatal(err)
	}
	if z.Seed != 0 {
		t.Fatalf("explicit -seed 0 renormalized to %d", z.Seed)
	}
	if z.Platform.Faults != nil {
		t.Fatalf("no -inject-* flag given, yet a fault plan was attached: %+v", z.Platform.Faults)
	}

	// A fault flag changes only its own field of the spec's plan, an
	// explicit zero included; every other field keeps the spec's value.
	degraded := loadSpec(t, "degraded-xgc.json")
	want := *degraded.Platform.Faults
	want.PFSWriteFailProb, want.BBWriteFailProb = 0.1, 0
	_, fs = parseFlags(t, "-inject-pfs", "0.1", "-inject-bb", "0")
	if out, err = applyOverrides(degraded, fs); err != nil {
		t.Fatal(err)
	}
	if *out.Platform.Faults != want {
		t.Fatalf("-inject-pfs 0.1 -inject-bb 0 on degraded-xgc: plan %+v, want %+v", *out.Platform.Faults, want)
	}

	// Likewise for the machine plan: -machine-crash-rate changes only
	// CrashRatePerHour.
	machined := loadSpec(t, "machine-degraded.json")
	wantMachine := *machined.Machine.Faults
	wantMachine.CrashRatePerHour = 0.5
	_, fs = parseFlags(t, "-machine-crash-rate", "0.5")
	if out, err = applyOverrides(machined, fs); err != nil {
		t.Fatal(err)
	}
	if *out.Machine.Faults != wantMachine {
		t.Fatalf("-machine-crash-rate 0.5 on machine-degraded: plan %+v, want %+v", *out.Machine.Faults, wantMachine)
	}

	for _, name := range specConflicts {
		_, fs := parseFlags(t, "-"+name+"=true")
		err := runSpec("../../examples/scenarios/chimera-titan.json", "", fs)
		if err == nil || !strings.Contains(err.Error(), "conflicts with -spec") {
			t.Errorf("-%s with -spec: got %v, want conflict error", name, err)
		}
	}
	_, fs = parseFlags(t, "-machine-crash-rate", "0.5")
	if err := runSpec("../../examples/scenarios/chimera-titan.json", "", fs); err == nil ||
		!strings.Contains(err.Error(), "-machine-crash-rate needs a spec with a machine block") {
		t.Errorf("-machine-crash-rate on a machine-less spec: got %v, want a machine-block error", err)
	}
}

// The committed degraded-xgc example documents itself as equivalent to
// the -inject-* flags: the flag-mode platform main builds from those
// flags must match the spec's compiled cells exactly, runs included.
func TestDegradedSpecMatchesFlagRun(t *testing.T) {
	s := loadSpec(t, "degraded-xgc.json")
	s.Runs = 3 // keep the test fast; the fault plan is what is under test
	cfgs, err := s.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 3 {
		t.Fatalf("unexpected grid: %+v", cfgs)
	}
	for _, rc := range cfgs {
		o, _ := parseFlags(t, "-app", "XGC", "-model", rc.Policy.String(), "-runs", "3", "-inject-bb", "0.05", "-inject-pfs", "0.05",
			"-inject-corrupt", "0.025", "-inject-restart", "0.05", "-inject-cascade", "0.025")
		flagCfg, err := o.config()
		if err != nil {
			t.Fatal(err)
		}
		if err := flagCfg.Validate(); err != nil {
			t.Fatal(err)
		}
		if got, want := rc.Platform.CanonicalString(), flagCfg.Config.CanonicalString(); got != want {
			t.Fatalf("%s: spec platform renders differently from the flag twin:\n%s\nvs\n%s", rc.Policy, got, want)
		}
		specAgg, _ := experiments.SimulateSweepN(experiments.StepTier(), rc.Policy, rc.Platform, s.Runs, s.Seed, 2, false)
		flagAgg, _ := experiments.SimulateSweepN(experiments.StepTier(), flagCfg.Model, flagCfg.Config, o.runs, o.seed, 2, false)
		if !reflect.DeepEqual(specAgg.Runs(), flagAgg.Runs()) {
			t.Fatalf("%s: spec runs diverge from flag runs", rc.Policy)
		}
	}
}

// Every committed example spec must load and validate.
func TestExampleSpecsLoad(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs found: %v", err)
	}
	for _, p := range paths {
		s, err := scenario.Load(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if _, err := s.Configs(); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

// A spec with a machine block routes to the shared-machine runner and
// completes; the node-pool math and admission plumbing come from the
// machine package's own tests — here we check the CLI wiring end-to-end.
func TestMachineSpecRuns(t *testing.T) {
	s, err := scenario.Load("../../examples/scenarios/machine-contended.json")
	if err != nil {
		t.Fatal(err)
	}
	s.Runs = 2 // keep the test fast
	if s.Machine == nil {
		t.Fatal("machine-contended.json lost its machine block")
	}
	if err := runMachineSpec(s, ""); err != nil {
		t.Fatal(err)
	}
}
