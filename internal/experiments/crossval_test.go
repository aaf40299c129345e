package experiments

import (
	"math"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/workload"
)

// TestCrossValidation drives every registered tier through the shared
// tier runner against the app-level reference on a matched platform
// configuration and identical seed sequences, asserting the agreement
// the CrossValidation experiment reports: exact failure-stream
// bookkeeping per seed on every tier, wall-clock divergence within a
// minute on a day-long job for the node tier, and full bit-identity —
// the entire RunResult — for the step tier. The Makefile's ci target
// runs this test under the race detector.
func TestCrossValidation(t *testing.T) {
	app := workload.App{Name: "crossval-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24}
	sys := failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48}
	plat := platform.Config{App: app, System: sys}
	const runs = 6
	ref := Tiers()[0]
	for _, tier := range Tiers()[1:] {
		tier := tier
		t.Run(tier.Name, func(t *testing.T) {
			for _, id := range policy.All() {
				if !tier.Supports(id) {
					continue
				}
				aAgg, _ := SimulateSweepN(ref, id, plat, runs, 42, 2, false)
				oAgg, _ := SimulateSweepN(tier, id, plat, runs, 42, 2, false)
				if aAgg.N() != runs || oAgg.N() != runs {
					t.Fatalf("%v: run counts %d/%d, want %d", id, aAgg.N(), oAgg.N(), runs)
				}
				var wallDiff float64
				for i, ar := range aAgg.Runs() {
					or := oAgg.Runs()[i]
					if ar.Failures != or.Failures || ar.Predicted != or.Predicted {
						t.Fatalf("%v seed %d: stream divergence (%s %d/%d vs %s %d/%d)",
							id, i, ref.Name, ar.Failures, ar.Predicted, tier.Name, or.Failures, or.Predicted)
					}
					if tier.Name == "step" && ar != or {
						t.Fatalf("%v seed %d: step tier not bit-identical\n%s:  %+v\n%s: %+v",
							id, i, ref.Name, ar, tier.Name, or)
					}
					wallDiff += math.Abs(ar.WallSeconds - or.WallSeconds)
				}
				if mean := wallDiff / runs; mean > 60 {
					t.Errorf("%v: mean wall divergence %.1fs across tiers", id, mean)
				}
			}
		})
	}
}

// TestCrossValidationExperiment checks the registry entry renders the
// agreement table and reports zero event-count divergence under the
// tier-qualified value keys — including the step tier's exact-mismatch
// cells, which must be zero.
func TestCrossValidationExperiment(t *testing.T) {
	r := CrossValidation(Params{Runs: 96, Seed: 42})
	for _, lbl := range []string{"B", "P1", "P2"} {
		if d, ok := r.Values[lbl+"/node/failures-diff"]; !ok || d != 0 {
			t.Errorf("%s: failure-count divergence %v across app/node tiers", lbl, d)
		}
		if d := r.Values[lbl+"/node/wall-divergence"]; math.Abs(d) > 0.02 {
			t.Errorf("%s: node wall-clock divergence %.3f, want within 2%%", lbl, d)
		}
	}
	for _, lbl := range []string{"B", "M1", "M2", "P1", "P2"} {
		if d, ok := r.Values[lbl+"/step/exact-mismatch"]; !ok || d != 0 {
			t.Errorf("%s: %v seeds diverge bit-wise between app and step tiers", lbl, d)
		}
		if d := r.Values[lbl+"/step/wall-divergence"]; d != 0 {
			t.Errorf("%s: step wall-clock divergence %v, want exactly 0", lbl, d)
		}
	}
}
