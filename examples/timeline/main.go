// Timeline: trace a single hybrid p-ckpt run and print its full event
// log plus a one-line activity strip — checkpoint cycles, predictions,
// migrations, p-ckpt episodes, failures, recoveries. Useful for
// understanding what the C/R model actually does with a failure stream.
//
//	go run ./examples/timeline [-app XGC] [-model P2] [-seed 4]
package main

import (
	"flag"
	"fmt"
	"log"

	"pckpt/internal/crmodel"
	"pckpt/internal/failure"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/trace"
	"pckpt/internal/workload"
)

func main() {
	appName := flag.String("app", "XGC", "Table I application")
	modelName := flag.String("model", "P2", "C/R model")
	seed := flag.Uint64("seed", 4, "run seed")
	full := flag.Bool("full", false, "print every event (default: skip per-cycle noise)")
	flag.Parse()

	app, err := workload.ByName(*appName)
	if err != nil {
		log.Fatal(err)
	}
	model, err := policy.ByName(*modelName)
	if err != nil {
		log.Fatal(err)
	}

	var buf trace.Buffer
	cfg := crmodel.Config{Model: model, Config: platform.Config{App: app, System: failure.Titan}, Trace: &buf}
	res := crmodel.Simulate(cfg, *seed)

	if *full {
		fmt.Print(buf.Render())
	} else {
		interesting := buf.Filter(
			trace.Prediction, trace.SpuriousPrediction,
			trace.MigrationStart, trace.MigrationDone, trace.MigrationAborted,
			trace.EpisodeStart, trace.VulnerableCommit, trace.EpisodeEnd,
			trace.SafeguardStart, trace.SafeguardEnd,
			trace.Failure, trace.RecoveryDone, trace.Complete,
		)
		for _, e := range interesting {
			fmt.Println(e)
		}
	}

	fmt.Println("\nevent counts:")
	fmt.Print(buf.Summary())
	fmt.Println("\nactivity strip (whole run, left → right):")
	fmt.Println(buf.Gantt(100))
	fmt.Printf("\nrun result: %v, FT ratio %.2f, wall %.1f h\n",
		res.Overheads, res.FTRatio(), res.WallSeconds/3600)
}
