// Quickstart: simulate the hybrid p-ckpt C/R model (the paper's model P2)
// on one Table I application and print the overhead breakdown against the
// periodic-checkpointing base model.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"runtime"

	"pckpt/internal/crmodel"
	"pckpt/internal/experiments"
	"pckpt/internal/failure"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/workload"
)

func main() {
	// Pick a workload from the paper's Table I catalogue.
	app, err := workload.ByName("XGC")
	if err != nil {
		log.Fatal(err)
	}

	// Configure the hybrid p-ckpt model: failure prediction drives live
	// migration when lead time permits, coordinated prioritized
	// checkpointing otherwise. Everything else (Summit I/O model, Fig. 2a
	// lead times, Desh-grade predictor accuracy) defaults to the paper's
	// setup.
	cfg := crmodel.Config{
		Model:  policy.P2,
		Config: platform.Config{App: app, System: failure.Titan},
	}
	fmt.Printf("application: %v\n", app)
	fmt.Printf("LM threshold θ = %.1f s, Eq.(2) σ = %.2f\n\n", cfg.Theta(), cfg.Model.Sigma(cfg.Derive()))

	// Average 200 independent runs (deterministic in the seed) on the
	// step tier, then do the same for the base model to compute the
	// paper's headline "reduction vs B".
	const runs, seed = 200, 1
	step, workers := experiments.StepTier(), runtime.GOMAXPROCS(0)
	hybrid, _ := experiments.SimulateSweepN(step, cfg.Model, cfg.Config, runs, seed, workers, false)
	baseline, _ := experiments.SimulateSweepN(step, policy.B, cfg.Config, runs, seed, workers, false)

	bo, ho := baseline.MeanOverheads(), hybrid.MeanOverheads()
	fmt.Printf("base model B:   %v\n", bo)
	fmt.Printf("hybrid p-ckpt:  %v\n", ho)
	fmt.Printf("FT ratio:       %.2f of failures handled proactively\n", hybrid.MeanFTRatio())
	_, _, _, total := stats.ReductionBreakdown(bo, ho)
	fmt.Printf("total overhead reduction: %.1f%% (paper reports ≈53-65%% across apps)\n", total)
}
