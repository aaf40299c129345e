package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"pckpt/internal/goldentest"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
)

// goldenParams pins the regression configuration: small enough that the
// whole registry replays in seconds, large enough that every table has
// failures, migrations, and episodes in it.
var goldenParams = Params{Runs: 25, Seed: 42, SeedSet: true}

// golden is the committed form of one experiment's machine-readable
// cells. Text is deliberately not compared byte-for-byte — the cells are
// the contract, rendering is free to evolve — but its goldens keep it
// for human diffing.
type golden struct {
	ID     string             `json:"id"`
	Title  string             `json:"title"`
	Values map[string]float64 `json:"values"`
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".json")
}

// bitExact is set when golden cells must match bit for bit (see
// goldentest.BitExact); elsewhere cells keep a tolerance. cellMode names
// the build and the comparison for failure messages.
var bitExact, cellMode = goldenMode()

// goldenMode names the cell comparison this build makes.
func goldenMode() (bool, string) {
	exact, build := goldentest.BitExact()
	if exact {
		return true, build + ", bit-exact"
	}
	return false, build + ", tolerance 1e-7 + 1e-6 relative"
}

// cellClose compares one golden cell: bit for bit when bitExact is set,
// else within per-cell relative tolerance, with an absolute floor for
// near-zero cells (percent reductions cross zero, where relative error
// is meaningless).
func cellClose(want, got float64) bool {
	if bitExact {
		return math.Float64bits(want) == math.Float64bits(got)
	}
	if want == got {
		return true
	}
	return math.Abs(want-got) <= 1e-7+1e-6*math.Max(math.Abs(want), math.Abs(got))
}

// TestGolden replays every registered experiment at the pinned
// parameters through Run, the path users take (each experiment's cells
// resolved as one plan), and compares each machine-readable cell
// against the committed golden. Any intentional behaviour change regenerates the
// goldens with -update and reviews the diff — that diff IS the review
// artifact for "did my change move the paper's numbers". Every run a
// sweep simulates on the way is also held to stepsim.CheckRun's
// invariants (checkedTier).
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay of the full registry is not -short")
	}
	var checked atomic.Int64
	for _, d := range All() {
		d := d
		t.Run(d.ID, func(t *testing.T) {
			before := checked.Load()
			runSweepsOn(t, checkedTier(t, &checked))
			r, err := Run(d, goldenParams)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(sweepingExperiments, d.ID) && checked.Load() == before {
				t.Error("no sweep run was checked")
			}
			if r.Text == "" {
				t.Fatal("experiment rendered no text")
			}
			if *goldentest.Update {
				writeGolden(t, d, r)
				return
			}
			data, err := os.ReadFile(goldenPath(d.ID))
			if err != nil {
				t.Fatalf("no golden for %s (run with -update to create): %v", d.ID, err)
			}
			var want golden
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("golden unparsable: %v", err)
			}
			if want.ID != d.ID || want.Title != d.Title {
				t.Errorf("identity drifted: golden (%s, %q) vs registry (%s, %q)", want.ID, want.Title, d.ID, d.Title)
			}
			compareCells(t, want.Values, r.Values)
		})
	}
	t.Logf("checked the invariants of %d runs", checked.Load())
}

// checkedTier is the step tier holding every run to stepsim.CheckRun: a
// run that breaks an invariant fails t, naming the run. checked counts
// the runs.
func checkedTier(t *testing.T, checked *atomic.Int64) Tier {
	return wrapRuns(StepTier(), func(id policy.ID, plat platform.Config, run Runner) Runner {
		return func(seed uint64, reg *metrics.Registry) stats.RunResult {
			r := run(seed, reg)
			if err := stepsim.CheckRun(plat, r); err != nil {
				t.Errorf("model=%s app=%s seed %#x: %v", id, plat.App.Name, seed, err)
			}
			checked.Add(1)
			return r
		}
	})
}

// compareCells diffs two cell maps, reporting missing, extra, and
// out-of-tolerance cells by name.
func compareCells(t *testing.T, want, got map[string]float64) {
	t.Helper()
	keys := make(map[string]bool, len(want)+len(got))
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var failures int
	for _, k := range sorted {
		w, inWant := want[k]
		g, inGot := got[k]
		switch {
		case !inWant:
			t.Errorf("new cell %q = %g not in golden (regenerate with -update)", k, g)
		case !inGot:
			t.Errorf("golden cell %q = %g no longer produced", k, w)
		case !cellClose(w, g):
			t.Errorf("cell %q: golden %g, got %g (Δ %g; %s)", k, w, g, g-w, cellMode)
		default:
			continue
		}
		if failures++; failures >= 20 {
			t.Fatalf("stopping after %d cell failures", failures)
		}
	}
}

// writeGolden rewrites one experiment's golden file.
func writeGolden(t *testing.T, d Def, r Result) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenPath(d.ID)), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(golden{ID: d.ID, Title: d.Title, Values: r.Values}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(d.ID), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("golden: wrote %s (%d cells)\n", goldenPath(d.ID), len(r.Values))
}
