package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"pckpt/internal/crmodel"
	"pckpt/internal/failure"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/runcache"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
	"pckpt/internal/sweep"
	"pckpt/internal/workload"
)

// TestSimulateSweepNLedgersPanickingRun plants a crashing fake tier in a
// sweep: the surviving seeds aggregate, and the ledger entry names the
// tier, model, and application (internal/sweep's table covers the pool
// and ledger mechanics).
func TestSimulateSweepNLedgersPanickingRun(t *testing.T) {
	badSeed := sweep.Seed(11, 2)
	fake := Tier{
		Name:     "fake",
		Supports: func(policy.ID) bool { return true },
		Run: func(id policy.ID, plat platform.Config, seed uint64, _ *metrics.Registry) stats.RunResult {
			if seed == badSeed {
				panic("planted tier crash")
			}
			return stats.RunResult{WallSeconds: float64(seed % 97)}
		},
	}
	plat := platform.Config{App: workload.App{Name: "fakeapp", Nodes: 4, TotalCkptGB: 4, ComputeHours: 1}}
	agg, _ := SimulateSweepN(fake, policy.P2, plat, 6, 11, 3, 0, false)
	if agg.N() != 5 || len(agg.Failed()) != 1 {
		t.Fatalf("%d runs + %d failures, want 5 + 1", agg.N(), len(agg.Failed()))
	}
	f := agg.Failed()[0]
	if f.Seed != badSeed || f.Err != "planted tier crash" {
		t.Fatalf("failure misattributed: %+v", f)
	}
	for _, want := range []string{"tier=fake", "model=P2", "app=fakeapp"} {
		if !strings.Contains(f.Config, want) {
			t.Errorf("ledger config %q missing %q", f.Config, want)
		}
	}
}

// TestRunTierCacheKeysDistinct plants three same-named-everything-else
// tiers against one cache directory: each tier's aggregate must resolve
// from its own entry, so registering a third tier cannot silently serve
// another tier's cached results.
func TestRunTierCacheKeysDistinct(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plat := platform.Config{App: workload.App{Name: "fakeapp", Nodes: 4, TotalCkptGB: 4, ComputeHours: 1}}
	p := Params{Runs: 3, Seed: 9, SeedSet: true, Workers: 1, Experiment: "cachetest", Cache: store}

	calls := map[string]int{}
	mk := func(name string, wall float64) Tier {
		return Tier{
			Name:     name,
			Supports: func(policy.ID) bool { return true },
			Run: func(id policy.ID, plat platform.Config, seed uint64, _ *metrics.Registry) stats.RunResult {
				calls[name]++
				return stats.RunResult{WallSeconds: wall}
			},
		}
	}
	tiers := []Tier{mk("alpha", 100), mk("beta", 200), mk("gamma", 300)}
	for pass := 0; pass < 2; pass++ {
		for i, tr := range tiers {
			agg := runTier(p, tr, policy.B, plat, 3, p.Seed)
			if want := float64((i + 1) * 100); agg.MeanWallSeconds() != want {
				t.Fatalf("pass %d tier %s: mean wall %.0f, want %.0f (cache key collision)",
					pass, tr.Name, agg.MeanWallSeconds(), want)
			}
		}
	}
	for name, n := range calls {
		if n != 3 {
			t.Errorf("tier %s simulated %d seeds, want 3 (second pass must be a cache hit)", name, n)
		}
	}
}

// TestTierRegistry pins the registry shape consumers rely on: the
// reference tier leads, names are unique, and TierByName round-trips
// every entry.
func TestTierRegistry(t *testing.T) {
	ts := Tiers()
	if len(ts) != 3 || ts[0].Name != "app" {
		t.Fatalf("Tiers() = %v, want app-led registry of 3", TierNames())
	}
	seen := map[string]bool{}
	for _, tr := range ts {
		if seen[tr.Name] {
			t.Fatalf("duplicate tier name %q", tr.Name)
		}
		seen[tr.Name] = true
		got, ok := TierByName(tr.Name)
		if !ok || got.Name != tr.Name {
			t.Fatalf("TierByName(%q) = (%v, %t)", tr.Name, got.Name, ok)
		}
	}
	if _, ok := TierByName("bogus"); ok {
		t.Fatal("TierByName resolved an unknown name")
	}
	want := map[string][]bool{
		// per policy.All() order: B, M1, M2, P1, P2
		"app":  {true, true, true, true, true},
		"node": {true, false, false, true, true},
		"step": {true, true, true, true, true},
	}
	for _, tr := range ts {
		for i, id := range policy.All() {
			if got := tr.Supports(id); got != want[tr.Name][i] {
				t.Errorf("%s.Supports(%v) = %t, want %t", tr.Name, id, got, want[tr.Name][i])
			}
		}
	}
	bitID := map[string]bool{"app": true, "node": false, "step": true}
	for _, tr := range ts {
		if tr.BitIdentical != bitID[tr.Name] {
			t.Errorf("%s.BitIdentical = %t, want %t", tr.Name, tr.BitIdentical, bitID[tr.Name])
		}
	}
}

// TestSweepTierDefaults pins the sweep-path routing: sweeps default to
// the step tier, an explicit tier resolves by registry name, unknown
// names and non-bit-identical tiers refuse with context.
func TestSweepTierDefaults(t *testing.T) {
	if got := (Params{}).sweepTier(); got.Name != "step" {
		t.Errorf("default sweep tier = %q, want step", got.Name)
	}
	if got := (Params{SweepTier: "app"}).sweepTier(); got.Name != "app" {
		t.Errorf("explicit sweep tier = %q, want app", got.Name)
	}
	mustPanic := func(p Params, frag string) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("SweepTier=%q did not panic", p.SweepTier)
				return
			}
			if !strings.Contains(fmt.Sprint(r), frag) {
				t.Errorf("SweepTier=%q panic %v lacks %q", p.SweepTier, r, frag)
			}
		}()
		p.sweepTier()
	}
	mustPanic(Params{SweepTier: "bogus"}, "unknown sweep tier")
	mustPanic(Params{SweepTier: "node"}, "not bit-identical")

	if got := (Params{}).crossCheckStride(); got != DefaultCrossCheckStride {
		t.Errorf("default cross-check stride = %d, want %d", got, DefaultCrossCheckStride)
	}
	if got := (Params{CrossCheckStride: 5}).crossCheckStride(); got != 5 {
		t.Errorf("explicit cross-check stride = %d, want 5", got)
	}
	if got := (Params{CrossCheckStride: -1}).crossCheckStride(); got != 0 {
		t.Errorf("negative cross-check stride = %d, want 0 (disabled)", got)
	}
}

// TestSimulateSweepNCrossCheck plants a fake tier that silently drifts
// from the reference on one sampled seed: the sweep must panic with a
// diagnostic naming both tiers, not return the drifted aggregate. A
// matching result on every sampled seed must pass, and stride <= 0 must
// skip the cross-check entirely.
func TestSimulateSweepNCrossCheck(t *testing.T) {
	plat := platform.Config{
		App:    workload.App{Name: "crossval-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24},
		System: failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48},
	}
	honest := StepTier()
	honest.Name = "fake-honest"
	if agg, _ := SimulateSweepN(honest, policy.P1, plat, 4, 3, 2, 2, false); agg.N() != 4 {
		t.Fatalf("honest tier: %d runs, want 4", agg.N())
	}

	driftSeed := crmodel.RunSeed(3, 2)
	drift := StepTier()
	drift.Name = "fake-drift"
	drift.Run = func(id policy.ID, plat platform.Config, seed uint64, _ *metrics.Registry) stats.RunResult {
		r := stepsim.Simulate(stepsim.Config{Model: id, Config: plat}, seed)
		if seed == driftSeed {
			r.WallSeconds++
		}
		return r
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("drifted tier passed the cross-check")
			}
			msg := fmt.Sprint(r)
			for _, frag := range []string{"fake-drift", "diverged", "app"} {
				if !strings.Contains(msg, frag) {
					t.Errorf("divergence panic %q lacks %q", msg, frag)
				}
			}
		}()
		SimulateSweepN(drift, policy.P1, plat, 4, 3, 2, 2, false)
	}()

	// stride 3 samples indices 0 and 3 only — the drift at index 2 is
	// never compared, so the sweep completes; stride 0 skips outright.
	if agg, _ := SimulateSweepN(drift, policy.P1, plat, 4, 3, 2, 3, false); agg.N() != 4 {
		t.Fatalf("unsampled drift: %d runs, want 4", agg.N())
	}
	if agg, _ := SimulateSweepN(drift, policy.P1, plat, 4, 3, 2, 0, false); agg.N() != 4 {
		t.Fatalf("stride 0: %d runs, want 4", agg.N())
	}
}

// TestSimulateSweepNCrossCheckReusesSweepRuns pins that the cross-check
// compares the reference against the runs the sweep aggregated: every
// seed runs once on the sweep tier, a panic on the sweep tier alone at a
// sampled seed is a divergence, and one at an unsampled seed is only
// ledgered.
func TestSimulateSweepNCrossCheckReusesSweepRuns(t *testing.T) {
	plat := platform.Config{
		App:    workload.App{Name: "crossval-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24},
		System: failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48},
	}
	var calls atomic.Int32
	crashSeed := uint64(0)
	tier := StepTier()
	tier.Name = "fake-counted"
	tier.Run = func(id policy.ID, plat platform.Config, seed uint64, _ *metrics.Registry) stats.RunResult {
		calls.Add(1)
		if seed == crashSeed {
			panic("planted step crash")
		}
		return stepsim.Simulate(stepsim.Config{Model: id, Config: plat}, seed)
	}
	if agg, _ := SimulateSweepN(tier, policy.P1, plat, 4, 3, 2, 2, false); agg.N() != 4 || calls.Load() != 4 {
		t.Fatalf("%d runs from %d sweep-tier calls, want 4 from 4", agg.N(), calls.Load())
	}

	crashSeed = sweep.Seed(3, 3) // index 3 is not sampled at stride 2
	agg, _ := SimulateSweepN(tier, policy.P1, plat, 4, 3, 2, 2, false)
	if agg.N() != 3 || len(agg.Failed()) != 1 || agg.Failed()[0].Seed != crashSeed {
		t.Fatalf("unsampled crash: %d runs, ledger %+v", agg.N(), agg.Failed())
	}

	crashSeed = sweep.Seed(3, 2) // sampled: the reference tier completes it
	defer func() {
		msg := fmt.Sprint(recover())
		for _, frag := range []string{"fake-counted", "diverged", "planted step crash"} {
			if !strings.Contains(msg, frag) {
				t.Errorf("one-sided panic report %q lacks %q", msg, frag)
			}
		}
	}()
	SimulateSweepN(tier, policy.P1, plat, 4, 3, 2, 2, false)
}

// TestBadAppFilterPanicsWithContext pins the harness-hardening change to
// the app-filter resolution: an unknown application must surface a
// contextualised error, not a bare workload lookup failure.
func TestBadAppFilterPanicsWithContext(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unknown app filter did not panic")
		}
		if !strings.Contains(strings.ToLower(fmt.Sprint(r)), "bad app filter") {
			t.Fatalf("panic %v lacks app-filter context", r)
		}
	}()
	Params{Apps: []string{"NOT-AN-APP"}}.apps()
}
