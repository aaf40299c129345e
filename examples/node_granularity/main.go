// Node granularity: run the C/R system with one simulated process per
// compute node (internal/nodesim — the "complete implementation" tier the
// paper leaves out of scope) next to the application-level model the
// paper's evaluation uses (internal/crmodel), on the identical failure
// stream, and show that the two tiers tell the same story.
//
//	go run ./examples/node_granularity [-nodes 48] [-hours 24] [-seeds 20]
package main

import (
	"flag"
	"fmt"

	"pckpt/internal/crmodel"
	"pckpt/internal/failure"
	"pckpt/internal/nodesim"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/tablefmt"
	"pckpt/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 48, "cluster size (one simulated process per node)")
	hours := flag.Float64("hours", 24, "application compute hours")
	seeds := flag.Int("seeds", 20, "independent runs to average")
	flag.Parse()

	app := workload.App{Name: "demo", Nodes: *nodes, TotalCkptGB: float64(*nodes) * 20, ComputeHours: *hours}
	sys := failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: *nodes}

	t := tablefmt.NewTable("policy", "tier", "ckpt(h)", "recomp(h)", "recov(h)", "total(h)", "FT", "wall(h)")
	for _, id := range []policy.ID{policy.B, policy.P1, policy.P2} {
		var nAgg, cAgg stats.Agg
		for seed := uint64(0); seed < uint64(*seeds); seed++ {
			nAgg.Add(nodesim.Simulate(nodesim.Config{Policy: id, Config: platform.Config{App: app, System: sys}}, seed))
			cAgg.Add(crmodel.Simulate(crmodel.Config{Model: id, Config: platform.Config{App: app, System: sys}}, seed))
		}
		for _, row := range []struct {
			tier string
			agg  *stats.Agg
		}{{"node-granular", &nAgg}, {"app-level", &cAgg}} {
			mo := row.agg.MeanOverheads().Hours()
			t.AddRow(id.NodeLabel(), row.tier,
				fmt.Sprintf("%.3f", mo.Checkpoint),
				fmt.Sprintf("%.3f", mo.Recompute),
				fmt.Sprintf("%.3f", mo.Recovery),
				fmt.Sprintf("%.3f", mo.Total()),
				fmt.Sprintf("%.2f", row.agg.MeanFTRatio()),
				fmt.Sprintf("%.2f", row.agg.MeanWallSeconds()/3600))
		}
	}
	fmt.Printf("%d nodes × %.0f h under %s failures, %d seeds, identical streams per pair:\n\n",
		app.Nodes, app.ComputeHours, sys.Name, *seeds)
	fmt.Println(t.String())
	fmt.Println("The node-granular tier runs the actual protocol (priority lane, per-node")
	fmt.Println("processes); the app-level tier is the paper's simulation style. Agreement")
	fmt.Println("between them is asserted in internal/nodesim's cross-validation test.")
}
