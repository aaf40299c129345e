package experiments

import (
	"fmt"

	"pckpt/internal/failure"
	"pckpt/internal/lm"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/tablefmt"
)

// Fig6a reproduces the headline overhead comparison under the Titan
// failure distribution.
func Fig6a(p Params) Result {
	return fig6(p, failure.Titan)
}

// Fig6b is the same experiment under the LANL System 18 distribution.
func Fig6b(p Params) Result {
	return fig6(p, failure.LANLSystem18)
}

// Fig6System8 covers the System 8 numbers quoted in the paper's text
// (the figure itself was omitted there for space).
func Fig6System8(p Params) Result {
	return fig6(p, failure.LANLSystem8)
}

// fig6 runs all five models over the application set for one failure
// distribution and renders the stacked-overhead comparison.
func fig6(p Params, sys failure.System) Result {
	p = p.withDefaults()
	apps := p.apps()
	t := tablefmt.NewTable("App", "Model", "Ckpt(h)", "Recomp(h)", "Recov(h)", "Total(h)", "vs B", "FT", "Bar (vs base total)")
	values := map[string]float64{}
	for _, app := range apps {
		aggs := modelSet(p, app, sys, 1, failure.DefaultFNRate, policy.All())
		base := aggs[policy.B].MeanOverheads()
		for _, m := range policy.All() {
			mo := aggs[m].MeanOverheads()
			h := mo.Hours()
			_, _, _, tot := stats.ReductionBreakdown(base, mo)
			t.AddRow(app.Name, m.String(),
				fmt.Sprintf("%.2f", h.Checkpoint),
				fmt.Sprintf("%.2f", h.Recompute),
				fmt.Sprintf("%.2f", h.Recovery),
				fmt.Sprintf("%.2f", h.Total()),
				tablefmt.Percent(tot),
				fmt.Sprintf("%.2f", aggs[m].MeanFTRatio()),
				tablefmt.StackedBar([]float64{mo.Checkpoint, mo.Recompute, mo.Recovery}, base.Total(), 30))
			values[fmt.Sprintf("%s/%s/reduction-pct", app.Name, m)] = tot
			values[fmt.Sprintf("%s/%s/ft", app.Name, m)] = aggs[m].MeanFTRatio()
		}
	}
	text := t.String() + "\nbar fills: █ checkpoint  ▒ recomputation  ░ recovery\n"
	return Result{Text: text, Values: values}
}

// fig6cAlphas is the LM-transfer-ratio sweep of Fig. 6c (the paper's
// M2-* models: transfer = α × checkpoint size).
var fig6cAlphas = []float64{1, 2, 2.5, 3, 4}

// Fig6c compares P1 against M2 at varying LM transfer sizes.
func Fig6c(p Params) Result {
	p = p.withDefaults()
	apps := p.apps("CHIMERA", "XGC", "POP")
	t := tablefmt.NewTable("App", "Model", "Total(h)", "vs B", "Recomp red.", "Ckpt red.")
	values := map[string]float64{}
	for _, app := range apps {
		label := fmt.Sprintf("fig6c|%s|base", app.Name)
		plat := platform.Config{App: app, System: failure.Titan}
		baseAgg := runConfig(p, policy.B, plat, label)
		base := baseAgg.MeanOverheads()
		p1Agg := runConfig(p, policy.P1, plat, fmt.Sprintf("fig6c|%s|P1", app.Name))
		addRow := func(name string, agg *stats.Agg) float64 {
			mo := agg.MeanOverheads()
			ck, rc, _, tot := stats.ReductionBreakdown(base, mo)
			t.AddRow(app.Name, name,
				fmt.Sprintf("%.2f", mo.Total()/3600),
				tablefmt.Percent(tot), tablefmt.Percent(rc), tablefmt.Percent(ck))
			return tot
		}
		addRow("B", baseAgg)
		values[app.Name+"/P1/reduction-pct"] = addRow("P1", p1Agg)
		for _, alpha := range fig6cAlphas {
			m2Plat := platform.Config{App: app, System: failure.Titan, LM: lm.Default().WithAlpha(alpha)}
			agg := runConfig(p, policy.M2, m2Plat, fmt.Sprintf("fig6c|%s|M2-%.1f", app.Name, alpha))
			name := fmt.Sprintf("M2-%gx", alpha)
			values[fmt.Sprintf("%s/M2-%g/reduction-pct", app.Name, alpha)] = addRow(name, agg)
		}
	}
	text := t.String() + "\n(P1 beats M2 for large apps until the LM transfer ratio α drops near 1, per Observation 8)\n"
	return Result{Text: text, Values: values}
}
