package experiments

import (
	"fmt"

	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/tablefmt"
)

// degradedRates is the injection-severity axis: one knob r scales every
// fault class together (write failures and restart failures at r, silent
// corruption and recovery cascades at r/2).
var degradedRates = []float64{0, 0.02, 0.05, 0.10}

// degradedFaults builds the fault plan for severity r.
func degradedFaults(r float64) faultinject.Config {
	return faultinject.Config{
		BBWriteFailProb:  r,
		PFSWriteFailProb: r,
		CorruptProb:      r / 2,
		RestartFailProb:  r,
		CascadeProb:      r / 2,
	}
}

// Degraded sweeps the degraded-platform severity axis across the full
// policy catalogue: every model re-run with injected checkpoint-write
// failures, silent corruption (forcing multi-generation restart
// fallback), restart retries with backoff, and recovery cascades. The
// interesting question is ordering stability — whether the paper's
// P2 > P1 > M2 > M1 > B ranking survives a platform that fights back.
func Degraded(p Params) Result {
	p = p.withDefaults()
	// The experiment owns its injection axis; a global -inject-* flag
	// would double-degrade the sweep and desync the rate-0 baseline.
	p.Faults = faultinject.Config{}
	apps := p.apps("CHIMERA", "XGC")
	sys := failure.Titan
	t := tablefmt.NewTable("App", "Inject", "Model", "Total(h)", "vs clean", "FT", "WrFail", "Corrupt", "Retry", "Casc")
	values := map[string]float64{}
	for _, app := range apps {
		clean := map[policy.ID]float64{}
		for _, rate := range degradedRates {
			for _, m := range policy.All() {
				label := fmt.Sprintf("%s|%s|%s|inject=%.3f", app.Name, sys.Name, m, rate)
				plat := platform.Config{App: app, System: sys, Faults: degradedFaults(rate)}
				agg := runConfig(p, m, plat, label)
				mo := agg.MeanOverheads()
				if rate == 0 {
					clean[m] = mo.Total()
				}
				delta := 0.0
				if base := clean[m]; base > 0 {
					delta = 100 * (mo.Total() - base) / base
				}
				f := agg.FaultTotals()
				t.AddRow(app.Name, fmt.Sprintf("%.0f%%", rate*100), m.String(),
					fmt.Sprintf("%.2f", mo.Total()/3600),
					fmt.Sprintf("%+.1f%%", delta),
					fmt.Sprintf("%.2f", agg.MeanFTRatio()),
					fmt.Sprint(f.BBWriteFailures+f.PFSWriteFailures),
					fmt.Sprint(f.CorruptRestarts),
					fmt.Sprint(f.RestartRetries),
					fmt.Sprint(f.Cascades))
				key := fmt.Sprintf("%s/%s/%.3f", app.Name, m, rate)
				values[key+"/total-ovh-h"] = mo.Total() / 3600
				values[key+"/ft"] = agg.MeanFTRatio()
				values[key+"/write-failures"] = float64(f.BBWriteFailures + f.PFSWriteFailures)
				values[key+"/corrupt-restarts"] = float64(f.CorruptRestarts)
				values[key+"/restart-retries"] = float64(f.RestartRetries)
				values[key+"/cascades"] = float64(f.Cascades)
			}
		}
	}
	text := t.String() + "\n(vs clean: overhead change relative to the same policy on a perfect platform;\n" +
		" WrFail/Corrupt/Retry/Casc: injected-fault totals across all runs of the configuration)\n"
	return Result{Text: text, Values: values}
}
