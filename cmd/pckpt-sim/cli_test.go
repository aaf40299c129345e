package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"pckpt/internal/goldentest"
)

// TestMain doubles the test binary as the pckpt-sim CLI: when re-exec'd
// with PCKPT_SIM_RUN_MAIN=1 it parses PCKPT_SIM_ARGS (0x1f-separated)
// and runs main() instead of the test suite, so the CLI tests below
// exercise the real flag parsing, guards, and exit codes end to end
// without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("PCKPT_SIM_RUN_MAIN") == "1" {
		go exitOnRunawayHeap()
		os.Args = append([]string{"pckpt-sim"}, strings.Split(os.Getenv("PCKPT_SIM_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// exitOnRunawayHeap stops a re-exec'd CLI whose heap passes 1 GiB. No
// CLI test needs a tenth of that; a run that gets there is a runaway
// (an unvalidated NaN lead scale queues NaN-timed failures at about
// 1 GB/s), and it must fail its test without starving the host.
func exitOnRunawayHeap() {
	var m runtime.MemStats
	for range time.Tick(50 * time.Millisecond) {
		if runtime.ReadMemStats(&m); m.HeapAlloc > 1<<30 {
			fmt.Fprintln(os.Stderr, "pckpt-sim test: heap passed 1 GiB, stopping")
			os.Exit(3)
		}
	}
}

// runCLI re-execs the test binary as the CLI and captures its output
// and exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	return runCLIContext(context.Background(), t, args...)
}

// runCLIContext is runCLI under ctx: a CLI still running when ctx ends
// is killed, and the test fails instead of hanging.
func runCLIContext(ctx context.Context, t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(),
		"PCKPT_SIM_RUN_MAIN=1",
		"PCKPT_SIM_ARGS="+strings.Join(args, "\x1f"))
	var out, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errBuf
	err = cmd.Run()
	if ctx.Err() != nil {
		t.Errorf("pckpt-sim %s: killed, still running (%v)", strings.Join(args, " "), ctx.Err())
	}
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("re-exec failed: %v", err)
	}
	return out.String(), errBuf.String(), code
}

const specPath = "../../examples/scenarios/chimera-titan.json"

// TestCLIDefaultTierIsStep: with no -tier, a p-ckpt model runs on the
// step tier — the default sweep path since the episode port.
func TestCLIDefaultTierIsStep(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-model", "P1", "-runs", "2", "-baseline=false")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "(step tier") {
		t.Errorf("default run not on the step tier:\n%s", stdout)
	}
}

// TestCLIStepTraceEpisodeModel: -trace works on the step tier for an
// episode model (the path Validate used to reject).
func TestCLIStepTraceEpisodeModel(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-tier", "step", "-model", "P2", "-runs", "1", "-baseline=false", "-trace")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "single-run timeline") {
		t.Errorf("-trace printed no timeline:\n%s", stdout)
	}
}

// meteredRun runs the CLI with -metrics on a fixed small configuration
// plus the extra args and returns its stdout, stderr, exit code and the
// snapshot file it wrote (nil if none).
func meteredRun(t *testing.T, args ...string) (stdout, stderr string, code int, snap []byte) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "m.json")
	args = append([]string{"-app", "GYRO", "-model", "P1", "-runs", "3", "-seed", "5", "-baseline=false", "-metrics", "-metrics-out", out}, args...)
	stdout, stderr, code = runCLI(t, args...)
	snap, _ = os.ReadFile(out)
	return stdout, stderr, code, snap
}

// TestCLIMetricsImpliesAppTier: -metrics without an explicit -tier runs
// on the default step tier, and the snapshot it writes is byte-identical
// to the app tier's for the same seed and runs — metering on the default
// tier yields the app tier's sim.<model>.* numbers.
func TestCLIMetricsImpliesAppTier(t *testing.T) {
	stdout, stderr, code, step := meteredRun(t)
	if code != 0 || step == nil {
		t.Fatalf("exit %d, snapshot written %v, stderr: %s", code, step != nil, stderr)
	}
	if !strings.Contains(stdout, "(step tier") {
		t.Errorf("-metrics did not run on the default step tier:\n%s", stdout)
	}
	if !bytes.Contains(step, []byte(`"sim.P1.bb_write_seconds"`)) {
		t.Errorf("step tier snapshot lacks the sim.P1.* series:\n%s", step)
	}
	_, stderr, code, app := meteredRun(t, "-tier", "app")
	if code != 0 || app == nil {
		t.Fatalf("-tier app: exit %d, snapshot written %v, stderr: %s", code, app != nil, stderr)
	}
	if !bytes.Equal(step, app) {
		t.Errorf("step and app tier snapshots differ:\nstep: %s\napp:  %s", step, app)
	}
}

// TestCLIMetricsExplicitStepTierErrors: an explicit tier with -metrics
// errors only when that tier lacks the model; otherwise it meters on
// that tier — -tier step under sim.<model>.*, -tier node under its own
// nodesim.* series.
func TestCLIMetricsExplicitStepTierErrors(t *testing.T) {
	for _, tc := range []struct{ tier, series string }{
		{"step", `"sim.P1.`},
		{"node", `"nodesim.`},
	} {
		stdout, stderr, code, snap := meteredRun(t, "-tier", tc.tier)
		if code != 0 {
			t.Errorf("-tier %s -metrics: exit %d, stderr: %s", tc.tier, code, stderr)
			continue
		}
		if !strings.Contains(stdout, "("+tc.tier+" tier") {
			t.Errorf("-tier %s -metrics ran on another tier:\n%s", tc.tier, stdout)
		}
		if !bytes.Contains(snap, []byte(tc.series)) {
			t.Errorf("-tier %s snapshot lacks %s* series:\n%s", tc.tier, tc.series, snap)
		}
	}
	_, stderr, code, _ := meteredRun(t, "-tier", "node", "-model", "M1")
	if code != 2 || !strings.Contains(stderr, "does not implement") {
		t.Errorf("-tier node -model M1 -metrics: exit %d, stderr %q; want unsupported-model error", code, stderr)
	}
}

// TestCLITierGuards: unsupported model × tier combinations and unknown
// tier names exit with context.
func TestCLITierGuards(t *testing.T) {
	_, stderr, code := runCLI(t, "-tier", "node", "-model", "M1", "-runs", "1")
	if code != 2 || !strings.Contains(stderr, "does not implement") {
		t.Errorf("node×M1: exit %d, stderr %q; want unsupported-model error", code, stderr)
	}
	_, stderr, code = runCLI(t, "-tier", "bogus", "-model", "B", "-runs", "1")
	if code != 2 || !strings.Contains(stderr, "unknown tier") {
		t.Errorf("bogus tier: exit %d, stderr %q; want unknown-tier error", code, stderr)
	}
}

// TestCLISpecRunsOnStepTier: spec mode runs the full grid on the step
// tier, and an explicit -tier — node, or even the app reference, on a
// solo or a machine spec — conflicts with -spec instead of being refused
// late or silently ignored.
func TestCLISpecRunsOnStepTier(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-spec", specPath, "-runs", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "2 configurations (2 runs each") {
		t.Errorf("spec grid header missing:\n%s", stdout)
	}
	for _, args := range [][]string{
		{"-spec", specPath, "-tier", "node"},
		{"-spec", specPath, "-tier", "app"},
		{"-spec", "../../examples/scenarios/machine-contended.json", "-tier", "app"},
	} {
		stdout, stderr, code := runCLI(t, append(args, "-runs", "2")...)
		if code != 2 || !strings.Contains(stderr, "conflicts with -spec") || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want a conflict error before any output", args, code, stdout, stderr)
		}
	}
}

// TestCLITraceTierRejectedBeforeSimulating: -trace on a tier that cannot
// trace exits 2 before the sweep starts, so even a huge run count
// prints nothing.
func TestCLITraceTierRejectedBeforeSimulating(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-tier", "node", "-model", "B", "-runs", "100000", "-trace")
	if code != 2 || !strings.Contains(stderr, "-trace") || stdout != "" {
		t.Errorf("-tier node -trace: exit %d, stdout %q, stderr %q; want exit 2 naming -trace and no output", code, stdout, stderr)
	}
}

// TestCLIRejectsNonPositiveRuns: a run count below 1 exits 2 naming
// -runs before anything simulates, in flag mode and in spec mode, where
// the override applies after the spec is normalized (a spec's own
// "runs": 0 means the default, an explicit -runs 0 must not).
func TestCLIRejectsNonPositiveRuns(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "CHIMERA", "-model", "B", "-runs", "-5"},
		{"-spec", "../../examples/scenarios/machine-degraded.json", "-runs", "0"},
	} {
		stdout, stderr, code := runCLI(t, args...)
		if code != 2 || !strings.Contains(stderr, "-runs") || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming -runs and no output", args, code, stdout, stderr)
		}
	}
}

// TestCLISpecFlagPrecedence pins the PR 6 precedence contract at the
// CLI level: a conflicting selector errors, while an explicitly set
// numeric flag narrows the spec's plan.
func TestCLISpecFlagPrecedence(t *testing.T) {
	_, stderr, code := runCLI(t, "-spec", specPath, "-app", "CHIMERA")
	if code != 2 || !strings.Contains(stderr, "conflicts with -spec") {
		t.Errorf("-app with -spec: exit %d, stderr %q; want conflict error", code, stderr)
	}
	stdout, stderr, code := runCLI(t, "-spec", specPath, "-model", "M2", "-runs", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "1 configurations (2 runs each") || !strings.Contains(stdout, "M2") {
		t.Errorf("-model override did not narrow the grid:\n%s", stdout)
	}
}

// TestCLIRejectsNonFinitePlatform: a non-finite predictor, lead-time or
// LM flag exits 2 with one stderr line naming the field and the value,
// before anything prints. Unchecked, -lead-scale NaN never finished (its
// failure stream queued NaN-timed events inside one engine event, out of
// the watchdog's sight), -alpha NaN reported a wall time shorter than
// the job's compute, and -fn/-fp NaN skewed every overhead.
func TestCLIRejectsNonFinitePlatform(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"-alpha", "NaN", "alpha NaN"},
		{"-lead-scale", "NaN", "lead scale NaN"},
		{"-fn", "NaN", "FN rate NaN"},
		{"-fp", "Inf", "FP rate +Inf"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		stdout, stderr, code := runCLIContext(ctx, t, "-app", "XGC", "-model", "M2", "-runs", "2", "-baseline=false", c.flag, c.value)
		cancel()
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, c.want) {
			t.Errorf("%s %s: exit %d, stdout %q, stderr %q; want exit 2, no output and one line naming %q",
				c.flag, c.value, code, stdout, stderr, c.want)
		}
	}
}

// TestCLIRejectsNonFiniteBackoff: a NaN or infinite restart backoff
// exits 2 naming the field before anything simulates. Unchecked, Inf
// stalls the first failed restart forever and NaN silently drops the
// backoff.
func TestCLIRejectsNonFiniteBackoff(t *testing.T) {
	for _, backoff := range []string{"Inf", "NaN"} {
		stdout, stderr, code := runCLI(t, "-app", "XGC", "-model", "B", "-runs", "1", "-baseline=false",
			"-inject-restart", "0.5", "-inject-backoff", backoff)
		if code != 2 || !strings.Contains(stderr, "RestartBackoffSeconds") || stdout != "" {
			t.Errorf("-inject-backoff %s: exit %d, stdout %q, stderr %q; want exit 2 naming RestartBackoffSeconds and no output", backoff, code, stdout, stderr)
		}
	}
}

// TestGoldenStdout pins every byte pckpt-sim prints for each example
// spec at 8 runs, and for a metered flag-mode run, its snapshot file
// included. The bytes hold only where simulated numbers are bit-exact
// (goldentest.BitExact); -update rewrites the goldens.
func TestGoldenStdout(t *testing.T) {
	goldentest.RequireBitExact(t)
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs found (%v)", err)
	}
	for _, path := range paths {
		name := "spec-" + strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, "-spec", path, "-runs", "8")
			if code != 0 || stderr != "" {
				t.Fatalf("exit %d, stderr: %s", code, stderr)
			}
			goldentest.Check(t, filepath.Join("testdata", "golden", name+".txt"), stdout)
		})
	}
	t.Run("flag-metrics", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "m.json")
		stdout, stderr, code := runCLI(t, "-app", "GYRO", "-model", "P1", "-runs", "8", "-metrics", "-metrics-out", out)
		if code != 0 || stderr != "" {
			t.Fatalf("exit %d, stderr: %s", code, stderr)
		}
		golden := filepath.Join("testdata", "golden", "flag-metrics")
		goldentest.Check(t, golden+".txt", strings.ReplaceAll(stdout, out, "METRICS_OUT"))
		snap, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		goldentest.Check(t, golden+".json", string(snap))
	})
}
