package main

import (
	"reflect"
	"strings"
	"testing"

	"pckpt/internal/crmodel"
	"pckpt/internal/experiments"
	"pckpt/internal/failure"
	"pckpt/internal/lm"
	"pckpt/internal/platform"
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
	for i, model := range []crmodel.Model{crmodel.ModelB, crmodel.ModelP2} {
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

// Explicitly set flags override spec fields; conflicting selectors error.
func TestSpecOverridesAndConflicts(t *testing.T) {
	s, err := scenario.Load("../../examples/scenarios/chimera-titan.json")
	if err != nil {
		t.Fatal(err)
	}
	ov := specOverrides{
		set:        map[string]bool{"model": true, "runs": true, "seed": true, "lead-scale": true, "inject-pfs": true},
		model:      "M2",
		runs:       7,
		seed:       5,
		leadScale:  1.3,
		injPFS:     0.04,
		injRetries: 9, // NOT in set: must not apply
	}
	out := applyOverrides(s, ov)
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
	s2, err := scenario.Load("../../examples/scenarios/chimera-titan.json")
	if err != nil {
		t.Fatal(err)
	}
	z := applyOverrides(s2, specOverrides{set: map[string]bool{"seed": true}, seed: 0})
	if z.Seed != 0 {
		t.Fatalf("explicit -seed 0 renormalized to %d", z.Seed)
	}

	for _, name := range specConflicts {
		err := runSpec("../../examples/scenarios/chimera-titan.json", "", specOverrides{set: map[string]bool{name: true}})
		if err == nil || !strings.Contains(err.Error(), "conflicts with -spec") {
			t.Errorf("-%s with -spec: got %v, want conflict error", name, err)
		}
	}
}

// Every committed example spec must load and validate.
func TestExampleSpecsLoad(t *testing.T) {
	for _, p := range []string{
		"../../examples/scenarios/chimera-titan.json",
		"../../examples/scenarios/degraded-xgc.json",
		"../../examples/scenarios/cohort-scaled.json",
		"../../examples/scenarios/mined-replay.json",
		"../../examples/scenarios/machine-contended.json",
	} {
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
