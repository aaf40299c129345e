package stepsim

import (
	"errors"
	"fmt"
	"math"

	"pckpt/internal/platform"
	"pckpt/internal/stats"
)

// CheckRun reports every invariant a finished run on plat breaks, or nil,
// whatever the model, tier or seed:
//
//   - the three overhead buckets are finite and non-negative;
//   - the counters nest: Predicted ≤ Failures, Mitigated ≤ Failures,
//     Avoided ≤ Migrations;
//   - a run that was not truncated accounts for its whole wall time:
//     WallSeconds = ComputeSeconds + Checkpoint + Recompute + Recovery
//     − Migrations·DilationSeconds, to a relative 1e-12. Every second
//     the app is parked lands in exactly one bucket, and each completed
//     migration charges its dilation to Checkpoint without parking.
//
// A wait that skipped or double-counted its accounting — an alarm that
// fired twice, or one that was lost — breaks the identity. No simulation
// calls it: TestGolden applies it to every run it simulates, and the
// stepsim tests to the solo runs they check (checkRun).
func CheckRun(plat platform.Config, r stats.RunResult) error {
	var errs []error
	for _, b := range [...]struct {
		name string
		v    float64
	}{
		{"Checkpoint", r.Checkpoint},
		{"Recompute", r.Recompute},
		{"Recovery", r.Recovery},
	} {
		if !(b.v >= 0) || math.IsInf(b.v, 1) {
			errs = append(errs, fmt.Errorf("%s overhead %v is negative or not finite", b.name, b.v))
		}
	}
	if r.Predicted > r.Failures || r.Mitigated > r.Failures || r.Avoided > r.Migrations {
		errs = append(errs, fmt.Errorf("counters do not nest: predicted %d, mitigated %d of %d failures; %d avoided of %d migrations",
			r.Predicted, r.Mitigated, r.Failures, r.Avoided, r.Migrations))
	}
	if !r.Truncated {
		c := plat.WithDefaults()
		d := c.Derive()
		want := d.ComputeSeconds + r.Checkpoint + r.Recompute + r.Recovery -
			float64(r.Migrations)*c.LM.DilationSeconds(d.PerNodeGB)
		if diff := math.Abs(r.WallSeconds - want); !(diff <= 1e-12*r.WallSeconds) {
			errs = append(errs, fmt.Errorf("wall %v s, compute plus overheads minus dilation %v s (relative residual %.3g; overheads %v)",
				r.WallSeconds, want, diff/r.WallSeconds, r.Overheads))
		}
	}
	return errors.Join(errs...)
}
