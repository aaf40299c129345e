package nodesim

import (
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
)

// stormySystem fails the small job every ≈3 h: frequent enough that the
// injected-fault costs dominate per-seed recompute luck (with only a
// handful of failures per run, where a failure lands relative to the
// last checkpoint swings recompute more than the injection does).
var stormySystem = failure.System{Name: "stormy", Shape: 0.75, ScaleHours: 3, Nodes: 48}

// TestZeroRateInjectionBitIdentical is the node-granular twin of the
// crmodel hygiene test: rate-0 injection must be bit-identical to
// injection disabled, for every policy, because the fault plan lives on
// its own rng substream and rate-zero hooks never draw.
func TestZeroRateInjectionBitIdentical(t *testing.T) {
	for _, pol := range []policy.ID{policy.B, policy.P1, policy.P2} {
		for seed := uint64(1); seed <= 20; seed++ {
			clean := Config{Policy: pol, Config: platform.Config{App: smallApp, System: busySystem}}
			armed := clean
			armed.Faults = faultinject.Config{RestartRetries: 5, RestartBackoffSeconds: 60}
			a := Simulate(clean, seed)
			b := Simulate(armed, seed)
			if a != b {
				t.Fatalf("%s seed %d: rate-0 injection diverged from disabled:\n%+v\n%+v", pol, seed, a, b)
			}
		}
	}
}

// TestInjectionDegradesDeterministically checks the degraded node tier is
// reproducible, injects, and costs more than the clean run.
func TestInjectionDegradesDeterministically(t *testing.T) {
	faults := faultinject.Config{
		BBWriteFailProb:  0.2,
		PFSWriteFailProb: 0.2,
		CorruptProb:      0.1,
		RestartFailProb:  0.2,
		CascadeProb:      0.1,
	}
	for _, pol := range []policy.ID{policy.B, policy.P1, policy.P2} {
		cfg := Config{Policy: pol, Config: platform.Config{App: smallApp, System: stormySystem, Faults: faults}}
		a := Simulate(cfg, 777)
		if b := Simulate(cfg, 777); a != b {
			t.Fatalf("%s: degraded run not reproducible", pol)
		}
		if a.BBWriteFailures+a.PFSWriteFailures == 0 {
			t.Errorf("%s: no write failures injected at 20%%", pol)
		}
		// A single seed can go either way (a failed write also skips its
		// commit's cost); the mean over seeds must not.
		clean := cfg
		clean.Faults = faultinject.Config{}
		var degradedSum, cleanSum float64
		for seed := uint64(1); seed <= 10; seed++ {
			degradedSum += Simulate(cfg, seed).Total()
			cleanSum += Simulate(clean, seed).Total()
		}
		if degradedSum <= cleanSum {
			t.Errorf("%s: mean degraded overhead %.0f not above clean %.0f", pol, degradedSum/10, cleanSum/10)
		}
	}
}

// TestCorruptionForcesFallback drives corruption hard enough that some
// node-tier restart discovers a torn generation.
func TestCorruptionForcesFallback(t *testing.T) {
	faults := faultinject.Config{CorruptProb: 0.5}
	found := false
	for seed := uint64(1); seed <= 30 && !found; seed++ {
		cfg := Config{Policy: policy.P2, Config: platform.Config{App: smallApp, System: stormySystem, Faults: faults}}
		r := Simulate(cfg, seed)
		found = r.CorruptRestarts > 0
	}
	if !found {
		t.Fatal("no restart ever discovered a corrupt generation at CorruptProb=0.5")
	}
}
