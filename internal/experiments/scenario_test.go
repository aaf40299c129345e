package experiments

import (
	"testing"

	"pckpt/internal/crmodel"
	"pckpt/internal/nodesim"
	"pckpt/internal/runcache"
	"pckpt/internal/scenario"
)

// The embedded specs are part of the build: they must parse, validate,
// and include both failure-source shapes (parametric and trace replay).
func TestBuiltinSpecs(t *testing.T) {
	specs := BuiltinSpecs()
	if len(specs) < 2 {
		t.Fatalf("got %d builtin specs, want at least a parametric and a replay one", len(specs))
	}
	var replay, parametric bool
	for _, s := range specs {
		cfgs, err := s.Configs()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if cfgs[0].Platform.Replay != nil {
			replay = true
		} else {
			parametric = true
		}
	}
	if !replay || !parametric {
		t.Fatalf("builtin specs cover replay=%t parametric=%t, want both", replay, parametric)
	}
}

// scenarioConfigs is the cell count of the scenario experiment: the
// parametric spec's 3 apps × 3 policies plus the replay spec's 1 × 2.
const scenarioConfigs = 11

// A second run of the scenario experiment against a warm cache must
// execute zero simulations — re-running any spec is a runcache hit, for
// the replayed trace exactly like for the parametric catalogue (the
// trace digest is part of the platform canonical string).
func TestScenarioCacheWarmHit(t *testing.T) {
	dir := t.TempDir()
	p := Params{Runs: 5, Seed: 42}
	cold, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p.Cache = cold
	r1 := mustRun(t, "scenario", p)
	if st := cold.Totals(); st.Misses != scenarioConfigs || st.Puts != scenarioConfigs || st.Hits != 0 {
		t.Fatalf("cold run traffic %+v, want %d misses/puts", st, scenarioConfigs)
	}
	warm, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p.Cache = warm
	r2 := mustRun(t, "scenario", p)
	sameResult(t, r1, r2)
	if st := warm.Totals(); st.Hits != scenarioConfigs || st.Misses != 0 {
		t.Fatalf("warm run executed simulations: %+v, want %d hits", st, scenarioConfigs)
	}
}

// replaySpec returns the embedded trace-replay spec.
func replaySpec(t *testing.T) *scenario.Spec {
	t.Helper()
	for _, s := range BuiltinSpecs() {
		if cfgs, err := s.Configs(); err == nil && cfgs[0].Platform.Replay != nil {
			return s
		}
	}
	t.Fatal("no replay spec embedded")
	return nil
}

// A replayed trace draws nothing from the RNG, so a replay configuration
// must be bit-identical not only across worker counts (TestWorkers-
// Determinism covers the whole experiment) but across *seeds* too.
func TestReplaySpecSeedInvariant(t *testing.T) {
	s := replaySpec(t)
	cfgs, err := s.Configs()
	if err != nil {
		t.Fatal(err)
	}
	rc := cfgs[len(cfgs)-1]
	cfg := crmodel.Config{Model: rc.Policy, Config: rc.Platform}
	// Different seeds, identical results: the failure path consumes no
	// randomness. (The fault-injection substream is idle too: the replay
	// spec configures a perfect platform.)
	a := crmodel.Simulate(cfg, 1)
	b := crmodel.Simulate(cfg, 99)
	if a != b {
		t.Fatalf("replay run depends on the seed:\n%+v\nvs\n%+v", a, b)
	}
}

// Both simulation tiers consume a replayed trace through the same
// failure-stream interface: the node-granular tier must run a replay
// configuration and see exactly the trace's failure pattern (same
// deterministic result on every seed).
func TestNodesimConsumesReplay(t *testing.T) {
	s := replaySpec(t)
	cfgs, err := s.Configs()
	if err != nil {
		t.Fatal(err)
	}
	rc := cfgs[0]
	cfg := nodesim.Config{Policy: rc.Policy, Config: rc.Platform}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	a := nodesim.Simulate(cfg, 7)
	b := nodesim.Simulate(cfg, 1234)
	if a != b {
		t.Fatalf("node-tier replay run depends on the seed:\n%+v\nvs\n%+v", a, b)
	}
	if a.Failures == 0 {
		t.Fatal("node-tier replay run saw no failures from the trace")
	}
}
