package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCheckFileSweepLedger pins the sweep.Run rule: a blank-discarded
// ledger is flagged, a kept ledger is not.
func TestCheckFileSweepLedger(t *testing.T) {
	src := `package x

import "pckpt/internal/sweep"

func f() {
	out, _ := sweep.Run(3, 1, 1, "d", func(uint64) int { return 1 })
	out, _ = sweep.Run(3, 1, 1, "d", func(uint64) int { return 1 })
	kept, failed := sweep.Run(3, 1, 1, "d", func(uint64) int { return 1 })
	_, _, _ = out, kept, failed
}
`
	path := filepath.Join(t.TempDir(), "x.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	bad, err := checkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 2 {
		t.Fatalf("flagged %d statements, want 2", bad)
	}
}
