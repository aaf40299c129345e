package experiments

import (
	"embed"
	"fmt"
	"sort"

	"pckpt/internal/scenario"
	"pckpt/internal/stats"
	"pckpt/internal/tablefmt"
)

// specFS carries the builtin scenario specs: one parametric cohort (Table
// I entries plus an Eq. (3) rescaling on a degraded platform) and one
// failure-trace replay. They double as living documentation of the spec
// format — `make spec-validate` checks them alongside examples/.
//
//go:embed specs/*.json
var specFS embed.FS

// BuiltinSpecs parses and validates the embedded scenario specs, sorted
// by spec name. Panics on an invalid embedded spec: that is a build
// defect, not an input error.
func BuiltinSpecs() []*scenario.Spec {
	entries, err := specFS.ReadDir("specs")
	if err != nil {
		panic(fmt.Errorf("experiments: embedded specs: %w", err))
	}
	var specs []*scenario.Spec
	for _, e := range entries {
		data, err := specFS.ReadFile("specs/" + e.Name())
		if err != nil {
			panic(fmt.Errorf("experiments: embedded spec %s: %w", e.Name(), err))
		}
		s, err := scenario.Parse(data)
		if err != nil {
			panic(fmt.Errorf("experiments: embedded spec %s: %w", e.Name(), err))
		}
		if err := s.Validate(); err != nil {
			panic(fmt.Errorf("experiments: embedded spec %s: %w", e.Name(), err))
		}
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs
}

// Scenario runs the builtin declarative scenarios through the standard
// experiment machinery: every cohort × policy cell of every embedded spec
// simulates under the sweep's Params (the spec's own run/seed plan
// applies when a spec is run directly via pckpt-sim -spec; here the
// experiment's Runs/Seed govern, like every other registry entry, so the
// golden stays comparable across the suite). The replay spec exercises
// the full trace path: synthetic system, mined lead mixture, and a
// failure stream with no random draws at all.
func Scenario(p Params) Result {
	p = p.withDefaults()
	t := tablefmt.NewTable("Spec", "Config", "Model", "Total(h)", "FT", "Fail", "Mitig", "Avoid")
	values := map[string]float64{}
	for _, s := range BuiltinSpecs() {
		cfgs, err := s.Configs()
		if err != nil {
			panic(fmt.Errorf("experiments: scenario %s: %w", s.Name, err))
		}
		for _, rc := range cfgs {
			label := fmt.Sprintf("scenario=%s|%s|%s", s.Name, rc.Label, rc.Policy)
			agg := runConfig(p, rc.Policy, rc.Platform, label)
			mo := agg.MeanOverheads()
			fails, mitig, avoid := meanCounts(agg)
			t.AddRow(s.Name, rc.Label, rc.Policy.String(),
				fmt.Sprintf("%.2f", mo.Total()/3600),
				fmt.Sprintf("%.2f", agg.MeanFTRatio()),
				fmt.Sprintf("%.1f", fails),
				fmt.Sprintf("%.1f", mitig),
				fmt.Sprintf("%.1f", avoid))
			key := fmt.Sprintf("%s/%s/%s", s.Name, rc.Label, rc.Policy)
			values[key+"/total-ovh-h"] = mo.Total() / 3600
			values[key+"/ft"] = agg.MeanFTRatio()
		}
	}
	text := t.String() + "\n(each row is one cohort × policy cell of an embedded scenario spec;\n" +
		" the replayed-month spec consumes a recorded failure trace instead of Weibull draws)\n"
	return Result{Text: text, Values: values}
}

// meanCounts averages the per-run failure / mitigation / avoidance
// counters.
func meanCounts(agg *stats.Agg) (fails, mitig, avoid float64) {
	runs := agg.Runs()
	if len(runs) == 0 {
		return 0, 0, 0
	}
	for _, r := range runs {
		fails += float64(r.Failures)
		mitig += float64(r.Mitigated)
		avoid += float64(r.Avoided)
	}
	n := float64(len(runs))
	return fails / n, mitig / n, avoid / n
}
