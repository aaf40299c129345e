package experiments

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"pckpt/internal/appmodel"
	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/sweep"
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
		plain, none := SimulateSweepN(tier, policy.P2, plat, 8, 17, 4, false)
		metered, snap := SimulateSweepN(tier, policy.P2, plat, 8, 17, 4, true)
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
		if _, snap2 := SimulateSweepN(tier, policy.P2, plat, 8, 17, 2, true); snap.Diff(snap2) != "" {
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
		agg, snap := SimulateSweepN(tier, policy.B, platform.Config{}, 0, 1, 1, true)
		if len(agg.Runs()) != 0 || snap == nil || !snap.Empty() {
			t.Fatalf("%s: zero runs: n=%d snapshot=%+v", tier.Name, len(agg.Runs()), snap)
		}
	}
}

// TestFig7MeteredSweepTierParity: a metered figure renders the same
// result and collects the same snapshot on the step tier, which sweeps
// run on, as on the app-tier reference.
func TestFig7MeteredSweepTierParity(t *testing.T) {
	run := func(tier Tier) (Result, *metrics.Snapshot) {
		runSweepsOn(t, tier)
		p := Params{Runs: 8, Seed: 42, SeedSet: true, Workers: 2, Metrics: metrics.NewCollector()}
		return Fig7(p), p.Metrics.Snapshot()
	}
	stepRes, stepSnap := run(StepTier())
	appRes, appSnap := run(AppTier())
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

// TestMeteredSweepReusedRegistriesMatchFresh: a metered sweep reuses one
// registry per worker and folds each run's frame once every earlier
// seed's is folded, yet its snapshot equals the seed-order merge of fresh
// per-run registries' snapshots over the completed seeds, at any worker
// count. Every third seed is delayed, so that on two or more workers
// later seeds finish first and their frames wait for it. One planted
// seed records and then panics: its registry must be dropped, not
// reused, and it folds nothing. Another alone resolves an extra gauge:
// no later run on its registry may report it.
func TestMeteredSweepReusedRegistriesMatchFresh(t *testing.T) {
	const n, base = 12, 5
	crash, extra := sweep.Seed(base, 4), sweep.Seed(base, 2)
	index := map[uint64]int{}
	for i := 0; i < n; i++ {
		index[sweep.Seed(base, i)] = i
	}
	var (
		mu       sync.Mutex
		finished []int // seed indices in the order their runs returned
	)
	tier := wrapRuns(StepTier(), func(_ policy.ID, _ platform.Config, run Runner) Runner {
		return func(seed uint64, reg *metrics.Registry) stats.RunResult {
			if seed == extra {
				reg.Gauge("test.extra").Set(0, 5)
			}
			if index[seed]%3 == 0 {
				time.Sleep(time.Millisecond)
			}
			r := run(seed, reg)
			mu.Lock()
			finished = append(finished, index[seed])
			mu.Unlock()
			if seed == crash {
				panic("planted crash")
			}
			return r
		}
	})
	run, err := tier.Prepare(policy.P2, auditPlat)
	if err != nil {
		t.Fatal(err)
	}
	want := &metrics.Snapshot{}
	for i := 0; i < n; i++ {
		if seed := sweep.Seed(base, i); seed != crash {
			reg := metrics.New()
			r := run(seed, reg)
			want.Merge(reg.Snapshot(r.WallSeconds))
		}
	}
	for _, workers := range []int{1, 2, 4} {
		finished = nil
		agg, snap := SimulateSweepN(tier, policy.P2, auditPlat, n, base, workers, true)
		if f := agg.Failed(); len(agg.Runs()) != n-1 || len(f) != 1 || f[0].Seed != crash {
			t.Fatalf("workers=%d: %d completed, failed %+v", workers, len(agg.Runs()), f)
		}
		if workers > 1 && sort.IntsAreSorted(finished) {
			t.Fatalf("workers=%d: seeds finished in seed order %v, so no frame waited to be folded", workers, finished)
		}
		if d := snap.Diff(want); d != "" {
			t.Fatalf("workers=%d: reused registries vs fresh ones: %s", workers, d)
		}
	}
}

// TestMeteredSweepAllocs pins "no allocation per metered run": a warm
// metered sweep of one P2 cell on two workers allocates no more at 400
// runs than at 100, up to a slack of 30 (measured: 96 and 103). Each run
// records into a reused registry and leaves its frame in a recycled one;
// when every run left a frame of its own, the extra 300 runs cost 1,200
// allocations. A seed preempted mid-run (by a GC, or a descheduled
// thread) keeps the frames of the seeds after it waiting, and each frame
// the sweep adds then is a new one, so each size reads the quietest of
// five sweeps.
func TestMeteredSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without -race (make allocs)")
	}
	sweepAllocs := func(runs int) float64 {
		run := func() { SimulateSweepN(StepTier(), policy.P2, auditPlat, runs, 7, 2, true) }
		least := math.Inf(1)
		for i := 0; i < 5; i++ {
			least = min(least, testing.AllocsPerRun(1, run))
		}
		return least
	}
	if few, many := sweepAllocs(100), sweepAllocs(400); many > few+30 {
		t.Fatalf("a metered sweep allocated %.0f times at 100 runs and %.0f at 400: a per-run term", few, many)
	}
}

// TestReusedRegistryZeroAlloc pins "no registry per run": once a
// registry has served one run, resetting it, resolving a run's handle
// sets again (sim.<model>.* through appmodel.NewRunMetrics, and the
// failure.* and faultinject.* series the run's sources resolve) and
// recording into them allocates nothing.
func TestReusedRegistryZeroAlloc(t *testing.T) {
	reg := metrics.New()
	plat := auditPlat
	plat.Faults = faultinject.Config{BBWriteFailProb: 0.1}
	plat.Sources(1, reg)
	appmodel.NewRunMetrics(reg, policy.P2)
	var counters, gauges, hists []string
	snap := reg.Snapshot(0)
	for name := range snap.Counters {
		counters = append(counters, name)
	}
	for name := range snap.Gauges {
		gauges = append(gauges, name)
	}
	for name := range snap.Histograms {
		hists = append(hists, name)
	}
	if len(counters) < 10 || len(hists) < 10 {
		t.Fatalf("resolved %d counters and %d histograms, want the three handle sets", len(counters), len(hists))
	}
	run := func() {
		reg.Reset()
		m := appmodel.NewRunMetrics(reg, policy.P2)
		m.EpisodeWidth.Observe(3)
		m.VulnNodes.Set(1, 2)
		for _, name := range counters {
			reg.Counter(name).Inc()
		}
		for _, name := range gauges {
			reg.Gauge(name).Set(2, 1)
		}
		for _, name := range hists {
			reg.Histogram(name).Observe(0.5)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("a reused registry allocated %.1f times per run", allocs)
	}
}
