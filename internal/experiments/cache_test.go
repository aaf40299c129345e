package experiments

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"pckpt/internal/failure"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/runcache"
	"pckpt/internal/stats"
	"pckpt/internal/sweep"
)

// cacheDirFlag lets `make ci` drive the cross-process cold-then-warm
// pass: the same test binary runs twice against one shared directory —
// the first invocation populates it, the second must be all hits.
var cacheDirFlag = flag.String("cachedir", "", "shared cache dir for the cross-process cold/warm pass")

// fig4Chimera is the cache-test workload: Fig. 4 restricted to CHIMERA
// resolves exactly 15 configurations (1 base + 7 lead scales × 2
// models).
const fig4Configs = 15

func fig4Params(store *runcache.Store) Params {
	return Params{Runs: 25, Seed: 42, Apps: []string{"CHIMERA"}, Cache: store}
}

func mustRun(t *testing.T, id string, p Params) Result {
	t.Helper()
	d, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(d, p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func sameResult(t *testing.T, a, b Result) {
	t.Helper()
	if a.Text != b.Text {
		t.Errorf("rendered text differs:\n--- a\n%s\n--- b\n%s", a.Text, b.Text)
	}
	if !reflect.DeepEqual(a.Values, b.Values) {
		t.Error("machine-readable values differ")
	}
}

// A cold run then a warm run of the same experiment must render
// identically, and the warm run must execute zero simulations (every
// configuration a hit, none missed).
func TestCacheEquivalence(t *testing.T) {
	dir := t.TempDir()
	cold, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := mustRun(t, "fig4", fig4Params(cold))
	if st := cold.Totals(); st.Misses != fig4Configs || st.Puts != fig4Configs || st.Hits != 0 {
		t.Fatalf("cold run traffic %+v, want %d misses/puts", st, fig4Configs)
	}

	warm, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := mustRun(t, "fig4", fig4Params(warm))
	sameResult(t, r1, r2)
	if st := warm.Totals(); st.Hits != fig4Configs || st.Misses != 0 || st.Puts != 0 {
		t.Fatalf("warm run executed simulations: %+v, want %d hits and zero misses", st, fig4Configs)
	}
}

// blobFiles lists the store's blob paths.
func blobFiles(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			paths = append(paths, path)
		}
		return nil
	})
	return paths
}

// A truncated blob must be detected, evicted, and recomputed — never
// trusted — and the recomputed sweep must still render identically.
func TestCacheCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()
	cold, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := mustRun(t, "fig4", fig4Params(cold))

	paths := blobFiles(t, dir)
	if len(paths) != fig4Configs {
		t.Fatalf("store holds %d blobs, want %d", len(paths), fig4Configs)
	}
	data, err := os.ReadFile(paths[3])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[3], data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	warm, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := mustRun(t, "fig4", fig4Params(warm))
	sameResult(t, r1, r2)
	st := warm.Totals()
	if st.Evictions != 1 || st.Misses != 1 || st.Hits != fig4Configs-1 || st.Puts != 1 {
		t.Fatalf("corruption traffic %+v, want 1 evict + 1 miss + 1 put + %d hits", st, fig4Configs-1)
	}
}

// Interrupts stop seed dispatch, and cached cells keep resolving after
// the signal — so a fully warmed cache completes even under a pre-closed
// interrupt, and a partially warmed one looks every cell up, misses each
// hole and simulates nothing.
func TestCacheInterruptResume(t *testing.T) {
	var simulated atomic.Int64
	runSweepsOn(t, wrapRuns(StepTier(), func(_ policy.ID, _ platform.Config, run Runner) Runner {
		return func(seed uint64, reg *metrics.Registry) stats.RunResult {
			simulated.Add(1)
			return run(seed, reg)
		}
	}))
	dir := t.TempDir()
	cold, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := mustRun(t, "fig4", fig4Params(cold))

	closed := make(chan struct{})
	close(closed)
	d, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}

	// Fully warm + interrupt: completes entirely from cache.
	warm, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := fig4Params(warm)
	p.Interrupt = closed
	r2, err := Run(d, p)
	if err != nil {
		t.Fatalf("fully cached sweep aborted: %v", err)
	}
	sameResult(t, r1, r2)

	// Punch holes (as a mid-sweep SIGINT would leave them): the
	// interrupted rerun must look every cell up, then stop before any
	// seed of a hole runs.
	paths := blobFiles(t, dir)
	for _, path := range paths[len(paths)-3:] {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	partial, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p = fig4Params(partial)
	p.Interrupt = closed
	simulated.Store(0)
	if _, err := Run(d, p); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("partially cached sweep under interrupt returned %v, want ErrInterrupted", err)
	}
	if st := partial.Totals(); st.Puts != 0 || st.Misses != 3 || st.Hits != fig4Configs-3 {
		t.Fatalf("interrupted run traffic %+v, want each of the 3 holes missed and no puts", st)
	}
	if n := simulated.Load(); n != 0 {
		t.Fatalf("interrupted run simulated %d seeds, want none", n)
	}

	// Without the interrupt the rerun refills only the holes.
	resume, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r3 := mustRun(t, "fig4", fig4Params(resume))
	sameResult(t, r1, r3)
	if st := resume.Totals(); st.Misses != 3 || st.Puts != 3 || st.Hits != fig4Configs-3 {
		t.Fatalf("resume traffic %+v, want exactly the 3 holes recomputed", st)
	}
}

// A metered sweep must not lose metrics to entries cached by an
// un-metered one: those entries miss, are recomputed with metering, and
// upgraded in place.
func TestCacheMetricsUpgrade(t *testing.T) {
	dir := t.TempDir()
	plain, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := mustRun(t, "fig4", fig4Params(plain))

	metered, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := fig4Params(metered)
	p.Metrics = metrics.NewCollector()
	r2 := mustRun(t, "fig4", p)
	sameResult(t, r1, r2)
	if st := metered.Totals(); st.Misses != fig4Configs || st.Puts != fig4Configs {
		t.Fatalf("metered traffic %+v, want all entries upgraded", st)
	}
	if p.Metrics.Snapshot().Empty() {
		t.Fatal("metered sweep collected no metrics")
	}

	// A second metered sweep rides the upgraded entries — all hits, and
	// the collector is fed from stored snapshots.
	again, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := fig4Params(again)
	q.Metrics = metrics.NewCollector()
	mustRun(t, "fig4", q)
	if st := again.Totals(); st.Hits != fig4Configs || st.Misses != 0 {
		t.Fatalf("upgraded-entry traffic %+v, want all hits", st)
	}
	want := p.Metrics.Snapshot()
	got := q.Metrics.Snapshot()
	if !reflect.DeepEqual(want.Counters, got.Counters) {
		t.Error("stored metrics snapshots feed the collector differently than live metering")
	}
}

// TestCacheColdWarm is the cross-process pass `make ci` runs twice
// against one shared -cachedir: whichever process runs first simulates
// everything, the second must resolve everything from disk, and both
// must match an uncached in-process reference run. Without the flag it
// self-contains in a temp dir (one cold pass against the reference).
func TestCacheColdWarm(t *testing.T) {
	dir := *cacheDirFlag
	if dir == "" {
		dir = t.TempDir()
	}
	store, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref := mustRun(t, "fig4", Params{Runs: 25, Seed: 42, Apps: []string{"CHIMERA"}})
	r := mustRun(t, "fig4", fig4Params(store))
	sameResult(t, ref, r)
	st := store.Totals()
	if st.Hits+st.Misses != fig4Configs {
		t.Fatalf("traffic %+v does not cover the %d configurations", st, fig4Configs)
	}
	if st.Hits != 0 && st.Misses != 0 {
		t.Fatalf("mixed traffic %+v: a shared dir must be fully cold or fully warm", st)
	}
}

// TestRunReturnsCacheWriteError: when the store cannot write an entry
// (every shard directory name is taken by a regular file), Run returns
// the runcache error instead of panicking out of the experiment.
func TestRunReturnsCacheWriteError(t *testing.T) {
	dir := t.TempDir()
	store, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if err := os.WriteFile(filepath.Join(dir, "objects", fmt.Sprintf("%02x", i)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(d, fig4Params(store)); !errors.Is(err, syscall.ENOTDIR) || !strings.HasPrefix(err.Error(), "runcache: ") {
		t.Fatalf("Run against an unwritable store returned %v, want the runcache ENOTDIR error", err)
	}
}

// TestRunReportsFailedRuns plants crashes on three seeds of two fig4
// cells: Run reports those runs in Result.Failed, in declaration order
// and seed order within a cell, on a cold run and again on a warm run
// that resolves every cell from the cache's stored ledgers, at any
// worker count. With several workers the first planted seed crashes
// only once the second has, so the cell's seeds crash out of order.
func TestRunReportsFailedRuns(t *testing.T) {
	m2Label := fmt.Sprintf("CHIMERA|%s|%s|ls=%.3f|fn=%.3f", failure.Titan.Name, policy.M2, 0.5, failure.DefaultFNRate)
	m1Label := fmt.Sprintf("CHIMERA|%s|%s|ls=%.3f|fn=%.3f", failure.Titan.Name, policy.M1, 1.5, failure.DefaultFNRate)
	m2Base, m1Base := configSeed(42, m2Label), configSeed(42, m1Label)
	// M2 at 0.5 is declared before M1 at 1.5; within it, seed 1 before 3.
	want := []stats.FailedRun{
		{Seed: sweep.Seed(m2Base, 1), Err: "planted crash"},
		{Seed: sweep.Seed(m2Base, 3), Err: "planted crash"},
		{Seed: sweep.Seed(m1Base, 0), Err: "planted crash"},
	}
	var second chan struct{} // closed as the second planted seed crashes
	var closeSecond *sync.Once
	tier := wrapRuns(StepTier(), func(id policy.ID, plat platform.Config, run Runner) Runner {
		return func(seed uint64, reg *metrics.Registry) stats.RunResult {
			switch seed {
			case want[0].Seed:
				select {
				case <-second:
				case <-time.After(2 * time.Second):
				}
				panic("planted crash")
			case want[1].Seed:
				closeSecond.Do(func() { close(second) })
				panic("planted crash")
			case want[2].Seed:
				panic("planted crash")
			}
			return run(seed, reg)
		}
	})
	runSweepsOn(t, tier)

	for _, workers := range []int{1, 7} {
		second, closeSecond = make(chan struct{}), new(sync.Once)
		if workers == 1 {
			closeSecond.Do(func() { close(second) }) // one worker runs the seeds in order
		}
		dir := t.TempDir()
		for _, pass := range []string{"cold", "warm"} {
			store, err := runcache.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			p := fig4Params(store)
			p.Workers = workers
			r := mustRun(t, "fig4", p)
			ok := len(r.Failed) == len(want)
			for i := 0; ok && i < len(want); i++ {
				f := r.Failed[i]
				ok = f.Seed == want[i].Seed && f.Err == want[i].Err && strings.Contains(f.Config, "tier=step")
			}
			if !ok {
				t.Errorf("workers=%d %s run reported failed runs %+v, want the planted crashes %+v in order", workers, pass, r.Failed, want)
			}
			if st := store.Totals(); pass == "warm" && (st.Hits != fig4Configs || st.Misses != 0) {
				t.Errorf("workers=%d warm run traffic %+v, want %d hits", workers, st, fig4Configs)
			}
		}
	}
}
