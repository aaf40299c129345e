package experiments

import (
	"fmt"

	"pckpt/internal/failure"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/tablefmt"
	"pckpt/internal/workload"
)

// CrossValidation runs every catalogue entry through the app-level
// reference tier and every other registered tier that implements it, on
// a matched platform configuration and identical seed sequences, and
// reports how closely the tiers agree — the repo's standing check that
// each granularity tells the same story as the paper-style
// application-level model. Event counts (failures, predicted) must
// agree exactly on every tier; wall time and overhead accounting within
// a few percent for the node tier; and the step tier must be
// bit-identical (the exact-mismatch cell counts seeds whose full
// RunResult differs from the reference — it must be zero).
//
// Values keys are tier-qualified: "<model>/<tier>/failures-diff",
// "/mitigated-diff", "/avoided-diff", "/wall-divergence", and for the
// step tier "/exact-mismatch".
func CrossValidation(p Params) Result {
	p = p.withDefaults()
	// A small busy configuration: big enough to exercise episodes,
	// migrations, and recoveries across seeds, small enough that the
	// node-granular tier (one process per node) stays fast.
	app := workload.App{Name: "crossval-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24}
	sys := failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48}
	plat := platform.Config{App: app, System: sys}
	runs := p.Runs / 16
	if runs < 6 {
		runs = 6
	}

	t := tablefmt.NewTable("Model", "Tier", "Failures", "Mitigated", "Avoided", "Wall(h)", "Total ovh(h)")
	values := map[string]float64{}
	ref := Tiers()[0]
	addRow := func(id policy.ID, tier string, agg *stats.Agg) (f, m, av int) {
		for _, r := range agg.Runs() {
			f += r.Failures
			m += r.Mitigated
			av += r.Avoided
		}
		t.AddRow(id.String(), tier,
			fmt.Sprint(f), fmt.Sprint(m), fmt.Sprint(av),
			fmt.Sprintf("%.2f", agg.MeanWallSeconds()/3600),
			fmt.Sprintf("%.2f", agg.MeanOverheads().Total()/3600))
		return
	}
	wanted := func(name string) bool {
		if len(p.Tiers) == 0 {
			return true
		}
		for _, w := range p.Tiers {
			if w == name {
				return true
			}
		}
		return false
	}
	for _, id := range policy.All() {
		var others []Tier
		for _, ot := range Tiers()[1:] {
			if ot.Supports(id) && wanted(ot.Name) {
				others = append(others, ot)
			}
		}
		if len(others) == 0 {
			continue
		}
		aAgg := runTier(p, ref, id, plat, runs)
		aF, aM, aA := addRow(id, ref.Name, aAgg)
		for _, ot := range others {
			oAgg := runTier(p, ot, id, plat, runs)
			oF, oM, oA := addRow(id, ot.Name, oAgg)
			pre := id.String() + "/" + ot.Name
			values[pre+"/failures-diff"] = float64(aF - oF)
			values[pre+"/mitigated-diff"] = float64(aM - oM)
			values[pre+"/avoided-diff"] = float64(aA - oA)
			wallDiv := 0.0
			if aw := aAgg.MeanWallSeconds(); aw > 0 {
				wallDiv = (oAgg.MeanWallSeconds() - aw) / aw
			}
			values[pre+"/wall-divergence"] = wallDiv
			if ot.Name == StepTier().Name {
				mismatch := 0
				for i, ar := range aAgg.Runs() {
					if ar != oAgg.Runs()[i] {
						mismatch++
					}
				}
				values[pre+"/exact-mismatch"] = float64(mismatch)
			}
		}
	}
	text := t.String() + fmt.Sprintf("\n(%d matched seeds per model; all tiers share internal/platform quantities and the internal/policy catalogue; the step tier must match the app tier bit for bit)\n", runs)
	return Result{Text: text, Values: values}
}
