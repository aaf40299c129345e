package experiments

import (
	"fmt"
	"strings"

	"pckpt/internal/analytic"
	"pckpt/internal/failure"
	"pckpt/internal/lm"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/tablefmt"
)

// obs9FNRates sweeps the false-negative rate while the false-positive
// rate stays at the paper's constant 18 %.
var obs9FNRates = []float64{failure.DefaultFNRate, 0.2, 0.3, 0.4}

// Obs9 reproduces the false-negative sensitivity study: all
// prediction-assisted models decline as FN rises, but the LM-assisted
// models (M2/P2) decline faster in recomputation because Eq. (2) keeps
// crediting them with avoidance they no longer deliver.
func Obs9(p Params) Result {
	p = p.withDefaults()
	apps := p.apps("CHIMERA", "XGC", "POP")
	models := []policy.ID{policy.M1, policy.M2, policy.P1, policy.P2}
	t := tablefmt.NewTable("App", "FN rate", "Model", "Recomp red.", "Total red.", "FT")
	values := map[string]float64{}
	for _, app := range apps {
		baseAgg := modelSet(p, app, failure.Titan, 1, failure.DefaultFNRate, []policy.ID{policy.B})
		base := baseAgg[policy.B].MeanOverheads()
		for _, fn := range obs9FNRates {
			aggs := modelSet(p, app, failure.Titan, 1, fn, models)
			for _, m := range models {
				mo := aggs[m].MeanOverheads()
				_, rc, _, tot := stats.ReductionBreakdown(base, mo)
				t.AddRow(app.Name, fmt.Sprintf("%.3f", fn), m.String(),
					tablefmt.Percent(rc), tablefmt.Percent(tot),
					fmt.Sprintf("%.3f", aggs[m].MeanFTRatio()))
				values[fmt.Sprintf("%s/fn=%.3f/%s/recomp-red", app.Name, fn, m)] = rc
				values[fmt.Sprintf("%s/fn=%.3f/%s/total-red", app.Name, fn, m)] = tot
			}
		}
	}
	text := t.String() + "\n(FP rate fixed at 18%; rising FN hits M2/P2 recomputation hardest, per Observation 9)\n"
	return Result{Text: text, Values: values}
}

// Obs9Fix evaluates the extension the paper proposes as future work:
// folding the predictor's actual accuracy into Eq. (2)'s σ. The published
// P2 keeps crediting live migration with avoidance it no longer delivers
// as the false-negative rate climbs, stretching the checkpoint interval
// too far; the accuracy-aware variant shortens the interval back and
// recovers most of the lost recomputation benefit.
func Obs9Fix(p Params) Result {
	p = p.withDefaults()
	apps := p.apps("CHIMERA", "XGC")
	t := tablefmt.NewTable("App", "FN rate", "Variant", "σ used", "Recomp red.", "Total red.")
	values := map[string]float64{}
	for _, app := range apps {
		baseAgg := modelSet(p, app, failure.Titan, 1, failure.DefaultFNRate, []policy.ID{policy.B})
		base := baseAgg[policy.B].MeanOverheads()
		for _, fn := range obs9FNRates {
			for _, aware := range []bool{false, true} {
				plat := platform.Config{
					App:                app,
					System:             failure.Titan,
					FNRate:             fn,
					AccuracyAwareSigma: aware,
				}
				variant := "published"
				if aware {
					variant = "accuracy-aware"
				}
				label := fmt.Sprintf("obs9fix|%s|fn=%.3f|%s", app.Name, fn, variant)
				agg := runConfig(p, policy.P2, plat, label)
				mo := agg.MeanOverheads()
				_, rc, _, tot := stats.ReductionBreakdown(base, mo)
				t.AddRow(app.Name, fmt.Sprintf("%.3f", fn), variant,
					fmt.Sprintf("%.3f", plat.SigmaLM()),
					tablefmt.Percent(rc), tablefmt.Percent(tot))
				values[fmt.Sprintf("%s/fn=%.3f/%s/recomp-red", app.Name, fn, variant)] = rc
				values[fmt.Sprintf("%s/fn=%.3f/%s/total-red", app.Name, fn, variant)] = tot
			}
		}
	}
	text := t.String() + "\n(extension of the paper's future work: σ adjusted by actual recall)\n"
	return Result{Text: text, Values: values}
}

// Analytic renders the Eqs. (4)–(8) model: break-even α per σ, plus each
// application's σ, θ, and the predicted LM-vs-p-ckpt winner at the
// paper's default α=3.
func Analytic(p Params) Result {
	p = p.withDefaults()
	var b strings.Builder
	t := tablefmt.NewTable("σ", "β(α=3)", "α threshold (Eq.8)", "α threshold (exact)")
	values := map[string]float64{}
	for _, s := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6} {
		t.AddRow(fmt.Sprintf("%.1f", s),
			fmt.Sprintf("%.3f", analytic.Beta(3, s)),
			fmt.Sprintf("%.3f", analytic.AlphaThreshold(s)),
			fmt.Sprintf("%.3f", analytic.AlphaThresholdExact(s)))
	}
	b.WriteString(t.String())
	lo, hi := analytic.AlphaRange()
	values["alpha-at-sigma-0.1"] = lo
	values["alpha-at-sigma-max"] = hi
	fmt.Fprintf(&b, "\nEq. (8) break-even α over σ ∈ [0.1, %.3f): %.3f … %.3f (paper: 1.04 ≤ α < 1.30)\n\n",
		analytic.SigmaMax, lo, hi)

	// Per-application σ and θ at the default configuration, with the
	// model's verdict at α = 3.
	at := tablefmt.NewTable("App", "θ (s)", "σ", "β(α=3)", "p-ckpt wins at 50/50?")
	for _, app := range p.apps() {
		plat := platform.Config{App: app, System: failure.Titan, LM: lm.Default()}
		sigma := plat.SigmaLM()
		theta := plat.Theta()
		if sigma >= analytic.SigmaMax {
			sigma = analytic.SigmaMax - 1e-9 // model validity bound
		}
		wins := analytic.PckptWins(lm.DefaultAlpha, sigma, 1, 1)
		at.AddRow(app.Name, fmt.Sprintf("%.2f", theta), fmt.Sprintf("%.3f", sigma),
			fmt.Sprintf("%.3f", analytic.Beta(lm.DefaultAlpha, sigma)), fmt.Sprint(wins))
		values[app.Name+"/theta-s"] = theta
		values[app.Name+"/sigma"] = sigma
	}
	b.WriteString(at.String())
	return Result{Text: b.String(), Values: values}
}
