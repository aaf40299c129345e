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
	"syscall"
	"testing"

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

// Interrupts abort at the next un-cached configuration, and the cached
// prefix keeps resolving after the signal — so a fully warmed cache
// completes even under a pre-closed interrupt, and a partially warmed
// one stops exactly at its first hole.
func TestCacheInterruptResume(t *testing.T) {
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

	// Punch holes in the tail (as a mid-sweep SIGINT would leave them):
	// the interrupted rerun must fast-forward through the prefix and
	// abort at the first hole.
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
	if _, err := Run(d, p); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("partially cached sweep under interrupt returned %v, want ErrInterrupted", err)
	}
	if st := partial.Totals(); st.Puts != 0 || st.Misses != 1 {
		t.Fatalf("interrupted run traffic %+v, want exactly one miss and no puts", st)
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

// TestRunReportsFailedRuns plants a crash on one seed of one fig4 cell:
// Run reports that run in Result.Failed on a cold run, and again on a
// warm run that resolves every cell from the cache's stored ledger.
func TestRunReportsFailedRuns(t *testing.T) {
	label := fmt.Sprintf("CHIMERA|%s|%s|ls=%.3f|fn=%.3f", failure.Titan.Name, policy.M2, 0.5, failure.DefaultFNRate)
	crashSeed := sweep.Seed(configSeed(42, label), 3)
	tier := wrapRuns(StepTier(), func(id policy.ID, plat platform.Config, run Runner) Runner {
		return func(seed uint64, reg *metrics.Registry) stats.RunResult {
			if id == policy.M2 && plat.LeadScale == 0.5 && seed == crashSeed {
				panic("planted crash")
			}
			return run(seed, reg)
		}
	})
	runSweepsOn(t, tier)

	dir := t.TempDir()
	for _, pass := range []string{"cold", "warm"} {
		store, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := mustRun(t, "fig4", fig4Params(store))
		if len(r.Failed) != 1 || r.Failed[0].Seed != crashSeed || r.Failed[0].Err != "planted crash" {
			t.Errorf("%s run reported failed runs %+v, want the planted crash at seed %#x", pass, r.Failed, crashSeed)
		}
		if st := store.Totals(); pass == "warm" && (st.Hits != fig4Configs || st.Misses != 0) {
			t.Errorf("warm run traffic %+v, want %d hits", st, fig4Configs)
		}
	}
}
