package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
	"pckpt/internal/workload"
)

// meteredTiers are the tiers that record the sim.<model>.* vocabulary.
var meteredTiers = []Tier{AppTier(), StepTier()}

// TestSimulateSweepNMeteredMatchesUnmetered: metering a sweep changes no
// run on either tier, the merged snapshot is independent of the worker
// count, its series agree with the aggregate, and both tiers give the
// same snapshot bit for bit.
func TestSimulateSweepNMeteredMatchesUnmetered(t *testing.T) {
	app := workload.App{Name: "faily", Nodes: 2000, TotalCkptGB: 2000, ComputeHours: 200}
	plat := platform.Config{App: app, System: failure.Titan}
	snaps := map[string]*metrics.Snapshot{}
	for _, tier := range meteredTiers {
		plain, none := SimulateSweepN(tier, policy.P2, plat, 8, 17, 4, 0, false)
		metered, snap := SimulateSweepN(tier, policy.P2, plat, 8, 17, 4, 0, true)
		if none != nil {
			t.Fatalf("%s: unmetered sweep returned a snapshot", tier.Name)
		}
		if !reflect.DeepEqual(plain.Runs(), metered.Runs()) {
			t.Fatalf("%s: runs diverged under metering", tier.Name)
		}
		if snap.Empty() {
			t.Fatalf("%s: metered sweep returned an empty snapshot", tier.Name)
		}
		// Merging is in seed order, so the worker count cannot show.
		if _, snap2 := SimulateSweepN(tier, policy.P2, plat, 8, 17, 2, 0, true); snap.Diff(snap2) != "" {
			t.Fatalf("%s: snapshot depends on the worker count: %s", tier.Name, snap.Diff(snap2))
		}
		// Every handled failure observes exactly one recovery span.
		failures := 0
		for _, r := range metered.Runs() {
			failures += r.Failures
		}
		if rec := snap.Histograms["sim.P2.recovery_seconds"]; int(rec.Count) != failures {
			t.Fatalf("%s: recovery_seconds count %d != %d failures", tier.Name, rec.Count, failures)
		}
		if bw := snap.Histograms["sim.P2.bb_write_seconds"]; bw.Count == 0 {
			t.Fatalf("%s: no BB write spans recorded", tier.Name)
		}
		if g, ok := snap.Gauges["sim.P2.drain_queue_depth"]; !ok || g.Max < 1 {
			t.Fatalf("%s: drain queue depth gauge missing or flat: %+v", tier.Name, g)
		}
		snaps[tier.Name] = snap
	}
	if d := snaps["step"].Diff(snaps["app"]); d != "" {
		t.Fatalf("step and app snapshots differ: %s", d)
	}
}

// TestSimulateSweepNMeteredZeroRuns: a metered sweep of zero runs needs
// no valid configuration and returns an empty, non-nil snapshot.
func TestSimulateSweepNMeteredZeroRuns(t *testing.T) {
	for _, tier := range meteredTiers {
		agg, snap := SimulateSweepN(tier, policy.B, platform.Config{}, 0, 1, 1, DefaultCrossCheckStride, true)
		if agg.N() != 0 || snap == nil || !snap.Empty() {
			t.Fatalf("%s: zero runs: n=%d snapshot=%+v", tier.Name, agg.N(), snap)
		}
	}
}

// TestFig7MeteredSweepTierParity: a metered figure renders the same
// result and collects the same snapshot whichever bit-identical tier the
// sweep runs on.
func TestFig7MeteredSweepTierParity(t *testing.T) {
	run := func(tier string) (Result, *metrics.Snapshot) {
		p := Params{Runs: 8, Seed: 42, SeedSet: true, Workers: 2, SweepTier: tier, Metrics: metrics.NewCollector()}
		return Fig7(p), p.Metrics.Snapshot()
	}
	stepRes, stepSnap := run("step")
	appRes, appSnap := run("app")
	if !reflect.DeepEqual(stepRes, appRes) {
		t.Fatalf("fig7 result depends on the sweep tier\nstep:\n%s\napp:\n%s", stepRes.Text, appRes.Text)
	}
	if stepSnap.Empty() {
		t.Fatal("metered fig7 collected nothing")
	}
	if d := stepSnap.Diff(appSnap); d != "" {
		t.Fatalf("fig7 snapshot depends on the sweep tier: %s", d)
	}
}

// TestSimulateSweepNMeteredCrossCheck plants a tier whose results are
// bit-identical but whose metered runs record one extra observation: the
// RunResult comparison cannot see it, so only the snapshot audit can. A
// metered sweep at stride 1 must panic naming the shifted series; an
// unmetered one has nothing to audit and completes.
func TestSimulateSweepNMeteredCrossCheck(t *testing.T) {
	plat := platform.Config{
		App:    workload.App{Name: "crossval-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24},
		System: failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48},
	}
	const series = "sim.P1.bb_write_seconds"
	planted := StepTier()
	planted.Name = "planted"
	planted.Run = func(id policy.ID, plat platform.Config, seed uint64, reg *metrics.Registry) stats.RunResult {
		r := stepsim.Simulate(stepsim.Config{Model: id, Config: plat, Metrics: reg}, seed)
		reg.Histogram(series).Observe(1)
		return r
	}
	if agg, _ := SimulateSweepN(planted, policy.P1, plat, 3, 5, 2, 1, false); agg.N() != 3 {
		t.Fatalf("unmetered planted sweep: %d runs, want 3", agg.N())
	}
	defer func() {
		msg := fmt.Sprint(recover())
		for _, frag := range []string{"planted", "diverged", "metrics", series} {
			if !strings.Contains(msg, frag) {
				t.Errorf("metrics divergence panic %q lacks %q", msg, frag)
			}
		}
	}()
	SimulateSweepN(planted, policy.P1, plat, 3, 5, 2, 1, true)
	t.Fatal("a shifted histogram passed the metered cross-check")
}
