package experiments

import (
	"fmt"
	"strings"
	"testing"

	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/runcache"
	"pckpt/internal/stats"
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
	agg, _ := SimulateSweepN(fake, policy.P2, plat, 6, 11, 3, false)
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
			agg := runTier(p, tr, policy.B, plat, 3)
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
