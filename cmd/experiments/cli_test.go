package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
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
