// Lead-time variability: sweep the prediction lead-time scale from −50%
// to +50% (the axis of the paper's Figs. 4 and 7) for one application and
// compare how the four prediction-assisted C/R models hold up. The
// headline behaviour: safeguard checkpointing (M1) is useless at scale,
// live migration (M2) collapses as soon as leads shrink, while p-ckpt
// (P1) and the hybrid (P2) keep most of their benefit.
//
//	go run ./examples/leadtime_variability [-app CHIMERA] [-runs 150]
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"

	"pckpt/internal/experiments"
	"pckpt/internal/failure"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/tablefmt"
	"pckpt/internal/workload"
)

func main() {
	appName := flag.String("app", "CHIMERA", "Table I application")
	runs := flag.Int("runs", 150, "simulation runs per point")
	flag.Parse()

	app, err := workload.ByName(*appName)
	if err != nil {
		log.Fatal(err)
	}

	const seed = 7
	sweep := func(m policy.ID, plat platform.Config) *stats.Agg {
		agg, _ := experiments.SimulateSweepN(experiments.StepTier(), m, plat, *runs, seed, runtime.GOMAXPROCS(0), false)
		return agg
	}
	base := sweep(policy.B, platform.Config{App: app, System: failure.Titan})
	baseTotal := base.MeanOverheads().Total()
	fmt.Printf("%s under Titan failures: base model total overhead %s\n\n", app.Name, tablefmt.Hours(baseTotal))

	models := []policy.ID{policy.M1, policy.M2, policy.P1, policy.P2}
	t := tablefmt.NewTable("lead Δ", "M1", "M2", "P1", "P2", "winner")
	for _, scale := range []float64{0.5, 0.7, 0.9, 1.0, 1.1, 1.3, 1.5} {
		row := []string{fmt.Sprintf("%+.0f%%", (scale-1)*100)}
		best, bestRed := "", -1e18
		for _, m := range models {
			agg := sweep(m, platform.Config{App: app, System: failure.Titan, LeadScale: scale})
			red := stats.PercentReduction(baseTotal, agg.MeanOverheads().Total())
			row = append(row, tablefmt.Percent(red))
			if red > bestRed {
				best, bestRed = m.String(), red
			}
		}
		t.AddRow(append(row, best)...)
	}
	fmt.Println("total overhead reduction vs base model B:")
	fmt.Println(t.String())
}
