package experiments

import (
	"fmt"

	"pckpt/internal/failure"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/tablefmt"
)

// fig4Scales is the variability axis of Figs. 4 and 7 (percent change in
// prediction lead time).
var fig4Scales = []float64{0.5, 0.7, 0.9, 1.0, 1.1, 1.3, 1.5}

// Fig4 reproduces the lead-time variability study for the prior-work
// models M1 (safeguard) and M2 (LM), relative to base model B.
func Fig4(p Params) Result {
	return leadVariability(p, []policy.ID{policy.M1, policy.M2})
}

// Fig7 is the same study for this paper's models P1 and P2.
func Fig7(p Params) Result {
	return leadVariability(p, []policy.ID{policy.P1, policy.P2})
}

// leadVariability sweeps the lead-time scale and reports per-component
// percent overhead reductions versus B (the y-axis of Figs. 4 and 7; 0 %
// means unchanged, 100 % means eliminated).
func leadVariability(p Params, models []policy.ID) Result {
	p = p.withDefaults()
	apps := p.apps("CHIMERA", "XGC", "POP")
	t := tablefmt.NewTable("App", "Lead Δ", "Model", "Ckpt red.", "Recomp red.", "Recov red.", "Total red.")
	values := map[string]float64{}
	for _, app := range apps {
		// B ignores predictions, so its overheads are lead-scale
		// independent: compute once.
		baseAgg := modelSet(p, app, failure.Titan, 1, failure.DefaultFNRate, []policy.ID{policy.B})
		base := baseAgg[policy.B].MeanOverheads()
		for _, scale := range fig4Scales {
			aggs := modelSet(p, app, failure.Titan, scale, failure.DefaultFNRate, models)
			if p.declaring() {
				continue
			}
			for _, m := range models {
				mo := aggs[m].MeanOverheads()
				ck, rc, rv, tot := stats.ReductionBreakdown(base, mo)
				t.AddRow(app.Name, leadScaleLabel(scale), m.String(),
					tablefmt.Percent(ck), tablefmt.Percent(rc), tablefmt.Percent(rv), tablefmt.Percent(tot))
				values[fmt.Sprintf("%s/%s/%s/recomp-red", app.Name, leadScaleLabel(scale), m)] = rc
				values[fmt.Sprintf("%s/%s/%s/ckpt-red", app.Name, leadScaleLabel(scale), m)] = ck
				values[fmt.Sprintf("%s/%s/%s/total-red", app.Name, leadScaleLabel(scale), m)] = tot
			}
		}
	}
	return Result{Text: t.String(), Values: values}
}

// Table2 reproduces the FT-ratio table for M1 and M2 under varied lead
// times.
func Table2(p Params) Result {
	return ftRatioTable(p, []policy.ID{policy.M1, policy.M2})
}

// Table4 is the FT-ratio table for P1 and P2.
func Table4(p Params) Result {
	return ftRatioTable(p, []policy.ID{policy.P1, policy.P2})
}

func ftRatioTable(p Params, models []policy.ID) Result {
	p = p.withDefaults()
	apps := p.apps("CHIMERA", "XGC", "POP")
	header := []string{"Lead Δ"}
	for _, app := range apps {
		for _, m := range models {
			header = append(header, fmt.Sprintf("%s %s", app.Name, m))
		}
	}
	t := tablefmt.NewTable(header...)
	values := map[string]float64{}
	for _, scale := range leadScales {
		row := []string{leadScaleLabel(scale)}
		for _, app := range apps {
			aggs := modelSet(p, app, failure.Titan, scale, failure.DefaultFNRate, models)
			if p.declaring() {
				continue
			}
			for _, m := range models {
				ft := aggs[m].MeanFTRatio()
				row = append(row, fmt.Sprintf("%.3f", ft))
				values[fmt.Sprintf("%s/%s/%s/ft", app.Name, leadScaleLabel(scale), m)] = ft
			}
		}
		t.AddRow(row...)
	}
	return Result{Text: t.String(), Values: values}
}

// fig8Scales expands the variability axis to ±90 % as in Fig. 8.
var fig8Scales = []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.1, 1.3, 1.5, 1.7, 1.9}

// Fig8 measures, inside the hybrid model P2, which proactive mechanism
// handles failures: positive values mean LM dominates, negative mean
// p-ckpt dominates. The paper's Observation 4.
func Fig8(p Params) Result {
	p = p.withDefaults()
	apps := p.apps()
	header := []string{"Lead Δ"}
	for _, app := range apps {
		header = append(header, app.Name)
	}
	t := tablefmt.NewTable(header...)
	values := map[string]float64{}
	for _, scale := range fig8Scales {
		row := []string{leadScaleLabel(scale)}
		for _, app := range apps {
			aggs := modelSet(p, app, failure.Titan, scale, failure.DefaultFNRate, []policy.ID{policy.P2})
			var avoided, mitigated, total int
			for _, r := range aggs[policy.P2].Runs() {
				avoided += r.Avoided
				mitigated += r.Mitigated
				total += r.TotalFailures()
			}
			diff := 0.0
			if total > 0 {
				diff = 100 * float64(avoided-mitigated) / float64(total)
			}
			row = append(row, fmt.Sprintf("%+.1f", diff))
			values[fmt.Sprintf("%s/%s/lm-minus-pckpt-pct", app.Name, leadScaleLabel(scale))] = diff
		}
		t.AddRow(row...)
	}
	text := t.String() + "\n(positive: LM is the dominant proactive choice; negative: p-ckpt dominates)\n"
	return Result{Text: text, Values: values}
}
