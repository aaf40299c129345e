package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pckpt/internal/goldentest"
)

// TestMain doubles the test binary as the experiments CLI: when re-exec'd
// with EXPERIMENTS_RUN_MAIN=1 it parses EXPERIMENTS_ARGS (0x1f-separated)
// and runs main() instead of the test suite, so the CLI tests below
// exercise the real flag parsing, guards, and exit codes end to end
// without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		os.Args = append([]string{"experiments"}, strings.Split(os.Getenv("EXPERIMENTS_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-execs the test binary as the CLI and captures its output
// and exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"EXPERIMENTS_RUN_MAIN=1",
		"EXPERIMENTS_ARGS="+strings.Join(args, "\x1f"))
	var out, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errBuf
	err = cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("re-exec failed: %v", err)
	}
	return out.String(), errBuf.String(), code
}

// TestCLITiersRejectsReference: crossval always runs the app reference
// and compares only the other tiers against it, so a -tiers filter naming
// the reference would leave nothing to compare; it exits 2 before any
// experiment runs.
func TestCLITiersRejectsReference(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-run", "crossval", "-runs", "2", "-no-cache", "-tiers", "app")
	if code != 2 || !strings.Contains(stderr, "always runs") || stdout != "" {
		t.Errorf("-tiers app: exit %d, stdout %q, stderr %q; want exit 2 saying the reference always runs", code, stdout, stderr)
	}
}

// TestCLIRetiredSweepFlags: the sweep-tier selector and the sampled
// cross-check knob are gone, so both are unknown flags.
func TestCLIRetiredSweepFlags(t *testing.T) {
	for _, args := range [][]string{{"-sweep-tier", "step"}, {"-crosscheck-every", "4"}} {
		_, stderr, code := runCLI(t, append(args, "-run", "fig4", "-runs", "2", "-no-cache")...)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: exit %d, stderr %q; want an unknown-flag error", args, code, stderr)
		}
	}
}

// TestCLIRunsFigure: a small uncached figure runs to completion.
func TestCLIRunsFigure(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-run", "fig4", "-runs", "2", "-no-cache")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "(fig4)") {
		t.Errorf("fig4 output missing its header:\n%s", stdout)
	}
}

// TestCLIRejectsUnknownApp: an -apps name outside the Table I catalogue
// exits 2 with one stderr line before any experiment prints, instead of
// panicking in the first experiment that resolves the filter.
func TestCLIRejectsUnknownApp(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-run", "all", "-apps", "CHIMERA, FOO", "-runs", "2", "-no-cache")
	if code != 2 || !strings.Contains(stderr, `"FOO"`) || strings.Count(stderr, "\n") != 1 || stdout != "" {
		t.Errorf("-apps FOO: exit %d, stdout %q, stderr %q; want exit 2 naming FOO on one line and no output", code, stdout, stderr)
	}
}

// TestCLIRejectsNonPositiveRuns: a run count below 1 exits 2 naming
// -runs before anything runs, instead of silently running the 200-run
// default.
func TestCLIRejectsNonPositiveRuns(t *testing.T) {
	for _, runs := range []string{"0", "-7"} {
		stdout, stderr, code := runCLI(t, "-run", "crossval", "-runs", runs, "-no-cache")
		if code != 2 || !strings.Contains(stderr, "-runs") || strings.Count(stderr, "\n") != 1 || stdout != "" {
			t.Errorf("-runs %s: exit %d, stdout %q, stderr %q; want exit 2 naming -runs on one line and no output", runs, code, stdout, stderr)
		}
	}
}

// TestCLICacheWriteErrorIsOneLine: a cache the CLI cannot write to (every
// shard directory name taken by a regular file) exits 2 with one stderr
// line naming the experiment, not a panic and its goroutine dump.
func TestCLICacheWriteErrorIsOneLine(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "objects"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if err := os.WriteFile(filepath.Join(dir, "objects", fmt.Sprintf("%02x", i)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, stderr, code := runCLI(t, "-run", "fig4", "-runs", "2", "-cache", dir)
	if code != 2 || strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "goroutine") ||
		!strings.HasPrefix(stderr, "experiments: fig4: runcache: ") {
		t.Errorf("unwritable cache: exit %d, stderr %q; want exit 2 and one line naming fig4 and the runcache error", code, stderr)
	}
}

// TestGoldenStdout pins every byte -run all prints at 12 runs per
// configuration. The bytes hold only where simulated numbers are
// bit-exact (goldentest.BitExact); -update rewrites the golden.
func TestGoldenStdout(t *testing.T) {
	goldentest.RequireBitExact(t)
	stdout, stderr, code := runCLI(t, "-run", "all", "-runs", "12", "-no-cache")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	goldentest.Check(t, filepath.Join("testdata", "golden", "run-all.txt"), stdout)
}
