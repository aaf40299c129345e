package stepsim_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"pckpt/internal/oci"
	"pckpt/internal/platform"
	"pckpt/internal/scenario"
	"pckpt/internal/stepsim"
)

// The size limits of FuzzSpecSimulate's cells, and the event watchdog
// its runs are armed at: a cell whose failure-free run makes more than
// maxFuzzCycles checkpoint cycles, or whose node table is larger than
// maxFuzzNodes, is skipped, and a run that dispatches more than
// fuzzEventBudget events trips.
const (
	maxFuzzCycles   = 5000
	maxFuzzNodes    = 4096
	fuzzEventBudget = 200_000
)

// FuzzSpecSimulate treats scenario specs as hostile input to the
// failure-free prefix: every valid spec without a machine block compiles,
// and each of its cells runs three seeds through Cell.Run's path — the
// second records the cell's prefix and the later ones restart from it —
// and through the full path, under the event watchdog. Both sides must
// complete, truncate or trip identically; any other panic, or any
// difference, fails the target. The example specs seed it.
func FuzzSpecSimulate(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example specs to seed from (%v)", err)
	}
	for _, path := range paths {
		s, err := scenario.Load(path)
		if err != nil {
			f.Fatal(err)
		}
		data, err := s.Render()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := scenario.Parse(data)
		if err != nil || s.Machine != nil {
			return
		}
		cells, err := s.Configs()
		if err != nil {
			return
		}
		for _, rc := range cells {
			if fuzzCellTooBig(rc.Platform) {
				continue
			}
			c, err := stepsim.Prepare(stepsim.Config{Model: rc.Policy, Config: rc.Platform})
			if err != nil {
				t.Fatalf("%s/%v: a compiled cell does not prepare: %v", rc.Label, rc.Policy, err)
			}
			for seed := uint64(1); seed <= 3; seed++ {
				matchFullPath(t, fmt.Sprintf("%s/%v", rc.Label, rc.Policy), c, seed, fuzzEventBudget)
			}
		}
	})
}

// fuzzCellTooBig reports whether a cell exceeds FuzzSpecSimulate's size
// limits. The cycle count is taken at the prior's OCI, an upper bound for
// the prefix's recording run: while nothing fails the rate estimate only
// falls, so the OCI only grows.
func fuzzCellTooBig(plat platform.Config) bool {
	plat = plat.WithDefaults()
	d := plat.Derive()
	if d.Nodes > maxFuzzNodes {
		return true
	}
	return !(d.ComputeSeconds <= maxFuzzCycles*oci.FromJobRate(d.BBWrite, plat.System.JobFailureRate(d.Nodes), 0))
}
