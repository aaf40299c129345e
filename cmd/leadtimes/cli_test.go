package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain doubles the test binary as the leadtimes CLI: when re-exec'd
// with LEADTIMES_RUN_MAIN=1 it parses LEADTIMES_ARGS (0x1f-separated) and
// runs main() instead of the test suite, so the tests below exercise the
// real flag parsing, validation and exit codes end to end.
func TestMain(m *testing.M) {
	if os.Getenv("LEADTIMES_RUN_MAIN") == "1" {
		os.Args = append([]string{"leadtimes"}, strings.Split(os.Getenv("LEADTIMES_ARGS"), "\x1f")...)
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
		"LEADTIMES_RUN_MAIN=1",
		"LEADTIMES_ARGS="+strings.Join(args, "\x1f"))
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

// TestCLIRejectsBadGeneratorFlags: a generator flag out of range —
// non-positive, negative, NaN or infinite — exits 2 before generating,
// with one stderr line naming the flag and nothing on stdout (no panic,
// no table of NaN).
func TestCLIRejectsBadGeneratorFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "0"}, {"-nodes", "-5"},
		{"-months", "0"}, {"-months", "-1"}, {"-months", "NaN"}, {"-months", "Inf"},
		{"-failures", "-1"}, {"-noise", "-1"}, {"-partial", "-3"},
	} {
		stdout, stderr, code := runCLI(t, args...)
		lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n")
		if code != 2 || stdout != "" || len(lines) != 1 || !strings.HasPrefix(lines[0], "leadtimes: "+args[0]+" ") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s", args, code, stdout, stderr, args[0])
		}
	}
}

// TestCLIMinesGeneratedLog: a small valid run generates, mines and prints
// the per-sequence statistics.
func TestCLIMinesGeneratedLog(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-nodes", "64", "-months", "1", "-failures", "50", "-noise", "2", "-partial", "5")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"with 50 planted chains", "mined 50 failure chains", "reconstructed lead-time model"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
}
