package experiments

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/scenario"
	"pckpt/internal/stats"
	"pckpt/internal/sweep"
	"pckpt/internal/workload"
)

// runSweepsOn points runConfig at tier until the test ends.
func runSweepsOn(t *testing.T, tier Tier) {
	saved := sweepTier
	sweepTier = tier
	t.Cleanup(func() { sweepTier = saved })
}

// sweepAudit runs every seed of a sweep on two tiers and records each
// seed where they differ: a RunResult bit difference, a metrics snapshot
// difference when the sweep is metered, or a panic on one side only. A
// panic on both sides is not a difference; the sweep ledgers that run.
type sweepAudit struct {
	t, ref Tier
	mu     sync.Mutex
	runs   int      // seeds compared
	diffs  []string // one line per diverging seed
}

// tier returns the auditing tier. The sweep sees exactly what a.t does —
// its result, its panic, its metrics in the sweep's registry — while a.ref
// runs the same seed alongside, with a registry of its own when metered.
func (a *sweepAudit) tier() Tier {
	return Tier{
		Name:     a.t.Name + "+" + a.ref.Name,
		Supports: a.t.Supports,
		Prepare: func(id policy.ID, plat platform.Config) (Runner, error) {
			run, runErr := a.t.Prepare(id, plat)
			ref, refErr := a.ref.Prepare(id, plat)
			return func(seed uint64, reg *metrics.Registry) stats.RunResult {
				return a.compare(id, plat, seed, reg, run, runErr, ref, refErr)
			}, nil
		},
	}
}

// compare runs one seed on both tiers' prepared cells and records any
// divergence; the sweep sees a.t's result, panic and metrics.
func (a *sweepAudit) compare(id policy.ID, plat platform.Config, seed uint64, reg *metrics.Registry, run Runner, runErr error, ref Runner, refErr error) stats.RunResult {
	var refReg *metrics.Registry
	if reg != nil {
		refReg = metrics.New()
	}
	got, gotPanic := tryTierRun(run, runErr, seed, reg)
	want, wantPanic := tryTierRun(ref, refErr, seed, refReg)
	var diff string
	switch {
	case gotPanic != nil && wantPanic != nil:
		// Both panicked: the sweep ledgers the run.
	case gotPanic != nil || wantPanic != nil:
		diff = fmt.Sprintf("%s panic=%v, %s panic=%v", a.t.Name, gotPanic, a.ref.Name, wantPanic)
	case got != want:
		diff = fmt.Sprintf("\n%s: %#v\n%s: %#v", a.t.Name, got, a.ref.Name, want)
	case reg != nil:
		if d := reg.Snapshot(got.WallSeconds).Diff(refReg.Snapshot(want.WallSeconds)); d != "" {
			diff = "metrics: " + d
		}
	}
	a.record(id, plat, seed, diff)
	if gotPanic != nil {
		panic(gotPanic)
	}
	return got
}

// wrapRuns returns t with every Runner it prepares wrapped by wrap,
// which also sees the cell.
func wrapRuns(t Tier, wrap func(id policy.ID, plat platform.Config, run Runner) Runner) Tier {
	prepare := t.Prepare
	t.Prepare = func(id policy.ID, plat platform.Config) (Runner, error) {
		run, err := prepare(id, plat)
		if err != nil {
			return nil, err
		}
		return wrap(id, plat, run), nil
	}
	return t
}

// record counts one compared seed and keeps its divergence, if any.
func (a *sweepAudit) record(id policy.ID, plat platform.Config, seed uint64, diff string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs++
	if diff != "" {
		a.diffs = append(a.diffs, fmt.Sprintf("%s diverged from %s at seed %#x model=%s app=%s: %s",
			a.t.Name, a.ref.Name, seed, id, plat.App.Name, diff))
	}
}

// tryTierRun runs one seed of a prepared cell and returns its panic
// value, if any; a cell that failed to prepare panics with its error.
func tryTierRun(run Runner, prepErr error, seed uint64, reg *metrics.Registry) (r stats.RunResult, panicked any) {
	if prepErr != nil {
		return r, prepErr
	}
	defer func() { panicked = recover() }()
	return run(seed, reg), nil
}

// auditPlat is the small crossval platform the audit's own tests sweep.
var auditPlat = platform.Config{
	App:    workload.App{Name: "crossval-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24},
	System: failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48},
}

// TestSweepAuditReportsDriftedSeed: a tier that silently shifts one
// seed's wall time is reported once, naming that seed and both tiers,
// while the sweep itself still aggregates every run; the honest step
// tier passes.
func TestSweepAuditReportsDriftedSeed(t *testing.T) {
	honest := &sweepAudit{t: StepTier(), ref: AppTier()}
	if agg, _ := SimulateSweepN(honest.tier(), policy.P1, auditPlat, 4, 3, 2, false); len(agg.Runs()) != 4 || honest.runs != 4 || len(honest.diffs) != 0 {
		t.Fatalf("honest tier: %d runs, %d audited, diffs %q", len(agg.Runs()), honest.runs, honest.diffs)
	}

	driftSeed := sweep.Seed(3, 2)
	drift := wrapRuns(StepTier(), func(_ policy.ID, _ platform.Config, run Runner) Runner {
		return func(seed uint64, _ *metrics.Registry) stats.RunResult {
			r := run(seed, nil)
			if seed == driftSeed {
				r.WallSeconds++
			}
			return r
		}
	})
	drift.Name = "fake-drift"
	a := &sweepAudit{t: drift, ref: AppTier()}
	if agg, _ := SimulateSweepN(a.tier(), policy.P1, auditPlat, 4, 3, 2, false); len(agg.Runs()) != 4 || a.runs != 4 {
		t.Fatalf("drifted tier: %d runs, %d audited, want 4 and 4", len(agg.Runs()), a.runs)
	}
	if len(a.diffs) != 1 {
		t.Fatalf("drifted tier: %d divergences %q, want 1", len(a.diffs), a.diffs)
	}
	for _, frag := range []string{fmt.Sprintf("seed %#x", driftSeed), "fake-drift", "app", "WallSeconds"} {
		if !strings.Contains(a.diffs[0], frag) {
			t.Errorf("divergence %q lacks %q", a.diffs[0], frag)
		}
	}
}

// TestSweepAuditOneSidedPanic: a panic on only one side is a divergence
// naming the panic, and the sweep ledgers the run exactly when the
// audited tier panicked. A panic on both sides is only a ledger entry.
// Either way each side runs every seed once.
func TestSweepAuditOneSidedPanic(t *testing.T) {
	crashSeed := sweep.Seed(3, 2)
	var calls atomic.Int32 // runs of the crashing tiers
	crashing := func(name string, base Tier) Tier {
		base.Name = name
		return wrapRuns(base, func(_ policy.ID, _ platform.Config, run Runner) Runner {
			return func(seed uint64, reg *metrics.Registry) stats.RunResult {
				calls.Add(1)
				if seed == crashSeed {
					panic("planted " + name + " crash")
				}
				return run(seed, reg)
			}
		})
	}
	step, app := crashing("fake-step", StepTier()), crashing("fake-app", AppTier())

	for _, tc := range []struct {
		name      string
		t, ref    Tier
		calls     int32
		ledgered  bool
		diffFrags []string
	}{
		{"audited side", step, AppTier(), 4, true, []string{"planted fake-step crash", "app panic=<nil>"}},
		{"reference side", StepTier(), app, 4, false, []string{"step panic=<nil>", "planted fake-app crash"}},
		{"both sides", step, app, 8, true, nil},
	} {
		calls.Store(0)
		a := &sweepAudit{t: tc.t, ref: tc.ref}
		agg, _ := SimulateSweepN(a.tier(), policy.P1, auditPlat, 4, 3, 2, false)
		if tc.ledgered != (len(agg.Failed()) == 1 && agg.Failed()[0].Seed == crashSeed) || len(agg.Runs())+len(agg.Failed()) != 4 {
			t.Errorf("%s: %d runs, ledger %+v; want the crash seed ledgered: %t", tc.name, len(agg.Runs()), agg.Failed(), tc.ledgered)
		}
		if calls.Load() != tc.calls {
			t.Errorf("%s: crashing tiers ran %d times, want %d", tc.name, calls.Load(), tc.calls)
		}
		if len(tc.diffFrags) == 0 {
			if len(a.diffs) != 0 {
				t.Errorf("%s: divergences %q, want none", tc.name, a.diffs)
			}
			continue
		}
		if len(a.diffs) != 1 {
			t.Errorf("%s: %d divergences %q, want 1", tc.name, len(a.diffs), a.diffs)
			continue
		}
		for _, frag := range append(tc.diffFrags, fmt.Sprintf("seed %#x", crashSeed)) {
			if !strings.Contains(a.diffs[0], frag) {
				t.Errorf("%s: divergence %q lacks %q", tc.name, a.diffs[0], frag)
			}
		}
	}
}

// TestSweepAuditMeteredSeries plants a tier whose results are
// bit-identical but whose metered runs record one extra observation: the
// RunResult comparison cannot see it, so only the snapshot audit can. A
// metered sweep reports every seed naming the shifted series; an
// unmetered one has nothing to compare and stays silent.
func TestSweepAuditMeteredSeries(t *testing.T) {
	const series = "sim.P1.bb_write_seconds"
	planted := wrapRuns(StepTier(), func(_ policy.ID, _ platform.Config, run Runner) Runner {
		return func(seed uint64, reg *metrics.Registry) stats.RunResult {
			r := run(seed, reg)
			reg.Histogram(series).Observe(1)
			return r
		}
	})
	planted.Name = "planted"
	plain := &sweepAudit{t: planted, ref: AppTier()}
	if agg, _ := SimulateSweepN(plain.tier(), policy.P1, auditPlat, 3, 5, 2, false); len(agg.Runs()) != 3 || plain.runs != 3 || len(plain.diffs) != 0 {
		t.Fatalf("unmetered planted sweep: %d runs, %d audited, diffs %q", len(agg.Runs()), plain.runs, plain.diffs)
	}
	metered := &sweepAudit{t: planted, ref: AppTier()}
	if agg, snap := SimulateSweepN(metered.tier(), policy.P1, auditPlat, 3, 5, 2, true); len(agg.Runs()) != 3 || snap.Empty() {
		t.Fatalf("metered planted sweep: %d runs, empty snapshot %t", len(agg.Runs()), snap.Empty())
	}
	if len(metered.diffs) != 3 {
		t.Fatalf("metered planted sweep: %d divergences %q, want 3", len(metered.diffs), metered.diffs)
	}
	for _, d := range metered.diffs {
		for _, frag := range []string{"planted", "metrics", series} {
			if !strings.Contains(d, frag) {
				t.Errorf("metrics divergence %q lacks %q", d, frag)
			}
		}
	}
}

// sweepingExperiments are the registry entries whose configurations run
// through runConfig, so users get their cells from the step tier alone.
var sweepingExperiments = []string{
	"fig4", "table2", "fig6a", "fig6b", "fig6sys8", "fig6c", "fig7",
	"table4", "fig8", "obs9", "obs9fix", "degraded", "scenario",
}

// TestCrossValidationSweepCells audits the step tier against the app-tier
// reference on every seed of every cell a sweep simulates: each
// registered experiment runs metered with runConfig on the auditing tier,
// and every cell of each non-machine example spec (what pckpt-sim -spec
// runs) is audited on two seeds. Any divergence fails, and so does a
// sweeping experiment that audited nothing. The Makefile's ci target runs
// it under the race detector.
func TestCrossValidationSweepCells(t *testing.T) {
	total := 0
	audited := map[string]int{}
	for _, d := range All() {
		a := &sweepAudit{t: StepTier(), ref: AppTier()}
		runSweepsOn(t, a.tier())
		if _, err := Run(d, Params{Runs: 4, Seed: 42, SeedSet: true, Metrics: metrics.NewCollector()}); err != nil {
			t.Fatalf("%s: %v", d.ID, err)
		}
		for _, diff := range a.diffs {
			t.Errorf("%s: %s", d.ID, diff)
		}
		audited[d.ID] = a.runs
		total += a.runs
	}
	for _, id := range sweepingExperiments {
		if audited[id] == 0 {
			t.Errorf("%s audited no runs", id)
		}
	}

	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs found (%v)", err)
	}
	for _, path := range paths {
		s, err := scenario.Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.Machine != nil {
			continue
		}
		cfgs, err := s.Configs()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		a := &sweepAudit{t: StepTier(), ref: AppTier()}
		for _, rc := range cfgs {
			SimulateSweepN(a.tier(), rc.Policy, rc.Platform, 2, s.Seed, runtime.GOMAXPROCS(0), true)
		}
		for _, diff := range a.diffs {
			t.Errorf("%s: %s", filepath.Base(path), diff)
		}
		if a.runs != 2*len(cfgs) {
			t.Errorf("%s: audited %d runs, want %d", filepath.Base(path), a.runs, 2*len(cfgs))
		}
		total += a.runs
	}
	t.Logf("audited %d runs", total)
}
