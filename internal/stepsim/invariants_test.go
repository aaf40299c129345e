package stepsim_test

import (
	"math"
	"strings"
	"testing"

	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
)

// checkRun fails t when r breaks an invariant of stepsim.CheckRun.
func checkRun(t testing.TB, plat platform.Config, r stats.RunResult) {
	t.Helper()
	if err := stepsim.CheckRun(plat, r); err != nil {
		t.Error(err)
	}
}

// TestCheckRunFlagsBrokenRuns: a clean run passes, and each invariant
// fails once its side of the run is broken. A truncated run is exempt
// from the wall-time identity only.
func TestCheckRunFlagsBrokenRuns(t *testing.T) {
	plat := testPlatforms()["clean"]
	r := stepsim.Simulate(stepsim.Config{Model: policy.P2, Config: plat}, 4)
	if err := stepsim.CheckRun(plat, r); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	for _, c := range []struct {
		name    string
		corrupt func(*stats.RunResult)
		want    string
	}{
		{"wall", func(r *stats.RunResult) { r.WallSeconds += 1e-3 }, "relative residual"},
		{"negative", func(r *stats.RunResult) { r.Recovery = -1 }, "Recovery overhead -1"},
		{"NaN", func(r *stats.RunResult) { r.Checkpoint = math.NaN() }, "Checkpoint overhead NaN"},
		{"nesting", func(r *stats.RunResult) { r.Mitigated = r.Failures + 1 }, "do not nest"},
		{"truncated wall", func(r *stats.RunResult) { r.WallSeconds, r.Truncated = r.WallSeconds/2, true }, ""},
	} {
		broken := r
		c.corrupt(&broken)
		err := stepsim.CheckRun(plat, broken)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckRun = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
