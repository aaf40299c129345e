// Package goldentest holds what the module's golden tests share: the
// -update flag, the bit-exactness probe, and the byte comparison of the
// CLIs' stdout goldens.
package goldentest

import (
	"flag"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// Update is the -update flag: a golden test rewrites its goldens from
// the current output instead of comparing against them.
var Update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// BitExact reports whether simulated numbers are bit-exact in this
// build, and names the build: amd64 at GOAMD64=v1, the configuration
// bench/reference.json's digests assume, fuses no multiply-adds; other
// builds may.
func BitExact() (exact bool, build string) {
	level := "unset"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				level = s.Value
			}
		}
	}
	return runtime.GOARCH == "amd64" && level == "v1", "GOARCH=" + runtime.GOARCH + " GOAMD64=" + level
}

// RequireBitExact skips t where byte goldens cannot hold (see BitExact),
// and fails it if -update asks such a build to rewrite them, so only the
// build that checks the goldens writes them. TestGoldenStdout in
// cmd/experiments and cmd/pckpt-sim calls it before running the command.
func RequireBitExact(t *testing.T) {
	exact, build := BitExact()
	switch {
	case exact:
	case *Update:
		t.Fatalf("-update refused: byte goldens are written only on GOARCH=amd64 GOAMD64=v1, where they are checked; this build is %s", build)
	default:
		t.Skipf("stdout goldens are bit-exact only on GOARCH=amd64 GOAMD64=v1; this build is %s", build)
	}
}

// Check compares got with the golden file at path, or rewrites the file
// under -update. TestGoldenStdout in cmd/experiments and cmd/pckpt-sim
// calls it for every output it pins.
func Check(t *testing.T, path, got string) {
	t.Helper()
	if *Update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g)-1 && i < len(w)-1 && g[i] == w[i] {
		i++
	}
	t.Errorf("output differs from %s at line %d:\n  golden: %q\n  got:    %q\n(after an intended change, rewrite with -update and review the diff)", path, i+1, w[i], g[i])
}
