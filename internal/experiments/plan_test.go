package experiments

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/runcache"
	"pckpt/internal/stats"
	"pckpt/internal/workload"
)

// planExperiments are the registry entries that declare cells: the
// sweeping experiments and crossval, whose cells run on every tier.
var planExperiments = append([]string{"crossval"}, sweepingExperiments...)

// sameBits reports whether two value maps hold the same keys with
// bit-identical values.
func sameBits(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// TestPlanMatchesCellByCell: resolving an experiment's cells as one plan
// (Run) renders exactly what resolving each cell on its own does (the
// Def's function called directly, every cell a one-cell plan): the same
// text, bit-identical values, no failed runs and the same metered
// snapshot, without a cache, cache-cold and cache-warm, at 1, 2 and 7
// workers. The warm pass must simulate nothing.
func TestPlanMatchesCellByCell(t *testing.T) {
	if testing.Short() {
		t.Skip("the plan/cell-by-cell matrix over every sweeping experiment is not -short")
	}
	for _, id := range planExperiments {
		t.Run(id, func(t *testing.T) {
			d, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			base := Params{Runs: 3, Seed: 42, SeedSet: true}
			ref := base
			ref.Workers, ref.Metrics = 2, metrics.NewCollector()
			want := d.Run(ref)
			wantSnap := ref.Metrics.Snapshot()
			for _, workers := range []int{1, 2, 7} {
				dir := t.TempDir()
				for _, mode := range []string{"uncached", "cold", "warm"} {
					p := base
					p.Workers, p.Metrics = workers, metrics.NewCollector()
					if mode != "uncached" {
						if p.Cache, err = runcache.Open(dir); err != nil {
							t.Fatal(err)
						}
					}
					got, err := Run(d, p)
					if err != nil {
						t.Fatalf("workers=%d %s: %v", workers, mode, err)
					}
					if got.Text != want.Text {
						t.Errorf("workers=%d %s: text differs:\n--- cell by cell\n%s\n--- plan\n%s", workers, mode, want.Text, got.Text)
					}
					if !sameBits(got.Values, want.Values) {
						t.Errorf("workers=%d %s: values differ from cell-by-cell resolution", workers, mode)
					}
					if len(got.Failed) != 0 {
						t.Errorf("workers=%d %s: failed runs %+v", workers, mode, got.Failed)
					}
					if d := wantSnap.Diff(p.Metrics.Snapshot()); d != "" {
						t.Errorf("workers=%d %s: metered snapshot differs: %s", workers, mode, d)
					}
					if mode == "warm" {
						if st := p.Cache.Totals(); st.Misses != 0 || st.Puts != 0 || st.Hits == 0 {
							t.Errorf("workers=%d: warm traffic %+v, want hits only", workers, st)
						}
					}
				}
			}
		})
	}
}

// TestResolveCellsCachesNonFiniteRuns: runs whose overheads or wall time
// are NaN or infinite resolve alike without a cache, cache-cold and
// cache-warm, bit for bit, and the warm pass simulates nothing. (A cache
// entry used to have no form for such a run, so the cold pass failed.)
func TestResolveCellsCachesNonFiniteRuns(t *testing.T) {
	var simulated atomic.Int64
	tier := Tier{
		Name:     "nonfinite",
		Supports: func(policy.ID) bool { return true },
		Prepare: func(policy.ID, platform.Config) (Runner, error) {
			return func(seed uint64, _ *metrics.Registry) stats.RunResult {
				simulated.Add(1)
				x := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1}[seed%4]
				return stats.RunResult{Overheads: stats.Overheads{Recovery: x}, WallSeconds: -x}
			}, nil
		},
	}
	plat := platform.Config{App: workload.App{Name: "fakeapp", Nodes: 4, TotalCkptGB: 4, ComputeHours: 1}}
	cells := []Cell{{Tier: tier, Label: "nonfinite", Policy: policy.B, Platform: plat, Runs: 8, Seed: 1}}
	want, err := ResolveCells(Params{Workers: 2}, cells)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, mode := range []string{"cold", "warm"} {
		store, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		simulated.Store(0)
		got, err := ResolveCells(Params{Workers: 2, Cache: store}, cells)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		for i, r := range got[0].Runs() {
			w := want[0].Runs()[i]
			if math.Float64bits(r.Recovery) != math.Float64bits(w.Recovery) || math.Float64bits(r.WallSeconds) != math.Float64bits(w.WallSeconds) {
				t.Fatalf("%s: run %d is %+v, want %+v", mode, i, r, w)
			}
		}
		if n := simulated.Load(); (mode == "warm") != (n == 0) {
			t.Fatalf("%s: simulated %d runs", mode, n)
		}
	}
}

// TestResolveCellsDefaultsWorkers: a zero Params.Workers sizes the pool
// from GOMAXPROCS, as Params documents, not one worker. Each run waits
// until as many runs as the pool should hold have started, or until a
// deadline two seconds after the first run started.
func TestResolveCellsDefaultsWorkers(t *testing.T) {
	const seeds = 64
	want := int64(min(runtime.GOMAXPROCS(0), seeds))
	if want == 1 {
		t.Skip("GOMAXPROCS is 1: one worker is the default")
	}
	var active, peak atomic.Int64
	var deadline time.Time
	var once sync.Once
	tier := Tier{
		Name:     "wait",
		Supports: func(policy.ID) bool { return true },
		Prepare: func(policy.ID, platform.Config) (Runner, error) {
			return func(uint64, *metrics.Registry) stats.RunResult {
				once.Do(func() { deadline = time.Now().Add(2 * time.Second) })
				n := active.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				for peak.Load() < want && time.Now().Before(deadline) {
					time.Sleep(100 * time.Microsecond)
				}
				active.Add(-1)
				return stats.RunResult{WallSeconds: 1}
			}, nil
		},
	}
	plat := platform.Config{App: workload.App{Name: "fakeapp", Nodes: 4, TotalCkptGB: 4, ComputeHours: 1}}
	aggs, err := ResolveCells(Params{}, []Cell{{Tier: tier, Label: "wait", Policy: policy.B, Platform: plat, Runs: seeds, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs[0].Runs()) != seeds {
		t.Fatalf("resolved %d runs, want %d", len(aggs[0].Runs()), seeds)
	}
	if got := peak.Load(); got != want {
		t.Fatalf("zero Workers ran at most %d runs at once, want GOMAXPROCS (%d)", got, want)
	}
}

// TestPlanInterruptMidExecute closes the interrupt from inside a run,
// after k seeds: Run returns ErrInterrupted, every cell whose seeds all
// finished is on disk and no other is, and a rerun reads those cells
// and simulates exactly the rest.
func TestPlanInterruptMidExecute(t *testing.T) {
	const k, runs = 60, 25
	d, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	ref := mustRun(t, "fig4", fig4Params(nil))
	for _, workers := range []int{1, 2, 7} {
		interrupt := make(chan struct{})
		var once sync.Once
		var simulated atomic.Int64
		runSweepsOn(t, wrapRuns(StepTier(), func(_ policy.ID, _ platform.Config, run Runner) Runner {
			return func(seed uint64, reg *metrics.Registry) stats.RunResult {
				if simulated.Add(1) == k {
					once.Do(func() { close(interrupt) })
				}
				return run(seed, reg)
			}
		}))
		dir := t.TempDir()
		store, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		p := fig4Params(store)
		p.Workers, p.Interrupt = workers, interrupt
		if _, err := Run(d, p); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("workers=%d: interrupted run returned %v, want ErrInterrupted", workers, err)
		}
		puts := store.Totals().Puts
		if puts < k/runs || puts >= fig4Configs {
			t.Fatalf("workers=%d: interrupted after %d seeds, %d cells put", workers, k, puts)
		}
		if n := len(blobFiles(t, dir)); n != puts {
			t.Fatalf("workers=%d: %d entries on disk, %d puts", workers, n, puts)
		}

		simulated.Store(0)
		resume, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		q := fig4Params(resume)
		q.Workers = workers
		sameResult(t, ref, mustRun(t, "fig4", q))
		rest := fig4Configs - puts
		if st := resume.Totals(); st.Hits != puts || st.Misses != rest || st.Puts != rest {
			t.Fatalf("workers=%d: resume traffic %+v, want %d hits and %d misses and puts", workers, st, puts, rest)
		}
		if n := simulated.Load(); n != int64(rest*runs) {
			t.Fatalf("workers=%d: resume simulated %d seeds, want the %d of the %d unput cells", workers, n, rest*runs, rest)
		}
	}
}

// TestPlansShareStore runs three plans at once on one store, two of them
// the same experiment: each renders as it does uncached, and a second
// round is served from the store alone. make race runs it raced.
func TestPlansShareStore(t *testing.T) {
	ids := []string{"fig4", "fig4", "fig7"}
	params := func(store *runcache.Store) Params {
		return Params{Runs: 10, Seed: 42, SeedSet: true, Workers: 2, Apps: []string{"XGC"}, Cache: store}
	}
	want := map[string]Result{}
	for _, id := range ids {
		want[id] = mustRun(t, id, params(nil))
	}
	dir := t.TempDir()
	for _, round := range []string{"cold", "warm"} {
		store, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]Result, len(ids))
		errs := make([]error, len(ids))
		var wg sync.WaitGroup
		for i, id := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d, err := ByID(id)
				if err != nil {
					errs[i] = err
					return
				}
				got[i], errs[i] = Run(d, params(store))
			}()
		}
		wg.Wait()
		for i, id := range ids {
			if errs[i] != nil {
				t.Fatalf("%s %s: %v", round, id, errs[i])
			}
			sameResult(t, want[id], got[i])
		}
		if st := store.Totals(); round == "warm" && (st.Misses != 0 || st.Puts != 0) {
			t.Fatalf("warm round traffic %+v, want hits only", st)
		}
	}
}

// TestPlanRenderMismatch: an experiment whose render pass asks for a
// cell its declare pass did not declare, or fewer cells than it
// declared, fails Run instead of rendering from the wrong cells.
func TestPlanRenderMismatch(t *testing.T) {
	runSweepsOn(t, Tier{
		Name:     "const",
		Supports: func(policy.ID) bool { return true },
		Prepare: func(policy.ID, platform.Config) (Runner, error) {
			return func(uint64, *metrics.Registry) stats.RunResult { return stats.RunResult{WallSeconds: 1} }, nil
		},
	})
	plat := platform.Config{App: workload.App{Name: "fakeapp", Nodes: 4, TotalCkptGB: 4, ComputeHours: 1}}
	// labels returns the labels pass n of an experiment resolves.
	cases := []struct {
		name   string
		labels func(pass int) []string
		want   string
	}{
		{"other cell", func(pass int) []string { return []string{"a", []string{"", "b", "c"}[pass]} }, "was never declared: the declare pass had"},
		{"extra cell", func(pass int) []string { return []string{"a", "b", "c"}[:pass+1] }, "was never declared: only 2 were"},
		{"missing cell", func(pass int) []string { return []string{"a", "b", "c"}[:4-pass] }, "declared 3 cells but rendered only 2"},
	}
	for _, tc := range cases {
		pass := 0
		d := Def{ID: "mismatch", Title: "test: a cell set that changes between passes", Run: func(p Params) Result {
			pass++
			for _, label := range tc.labels(pass) {
				runConfig(p, policy.B, plat, label)
			}
			return Result{Text: "rendered"}
		}}
		_, err := Run(d, Params{Runs: 2, Seed: 1, SeedSet: true})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestFig4WarmRunAllocs pins the warm path's allocations: resolving
// fig4's 45 cells at 200 runs from a warm cache, with its rendering,
// allocates at most 3,750 times (3,659 measured on amd64). Before cells
// resolved as one plan, with keys and entries rendered in reused
// buffers, it allocated 9,317 times, three quarters of them rendering
// platform keys.
func TestFig4WarmRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without -race (make allocs)")
	}
	dir := t.TempDir()
	d, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	params := func() Params {
		store, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return Params{Runs: 200, Seed: 42, SeedSet: true, Workers: 2, Cache: store}
	}
	if _, err := Run(d, params()); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(3, func() {
		p := params()
		if _, err := Run(d, p); err != nil || p.Cache.Totals().Misses != 0 {
			t.Fatalf("warm run: %v, traffic %+v", err, p.Cache.Totals())
		}
	})
	if got > 3750 {
		t.Fatalf("a warm fig4 Run at 200 runs allocated %.0f times, want at most 3750", got)
	}
}
