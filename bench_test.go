// Package repro benchmarks every table and figure of the paper plus the
// performance-critical substrates. Each BenchmarkFig*/BenchmarkTable*
// regenerates its experiment end to end (with a reduced run count per
// iteration — the experiment definitions themselves are run-count
// parametric); the reported values land in benchmark output, and the
// experiment tests in internal/experiments assert the paper's
// qualitative claims on the same code paths.
//
// Regenerate the full-size artefacts with:
//
//	go run ./cmd/experiments -run all -runs 1000
package repro

import (
	"fmt"
	"testing"

	"pckpt/internal/crmodel"
	"pckpt/internal/deshlog"
	"pckpt/internal/experiments"
	"pckpt/internal/failure"
	"pckpt/internal/iomodel"
	"pckpt/internal/lm"
	"pckpt/internal/nodesim"
	"pckpt/internal/pckpt"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/rng"
	"pckpt/internal/sim"
	"pckpt/internal/stepsim"
	"pckpt/internal/workload"
)

// benchParams keeps per-iteration cost manageable; the experiment
// definitions accept any run count.
var benchParams = experiments.Params{Runs: 20, Seed: 42}

func benchExperiment(b *testing.B, id string, p experiments.Params) {
	b.Helper()
	d, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var text string
	for i := 0; i < b.N; i++ {
		p.Seed = 42 + uint64(i) // vary work across iterations
		text = d.Run(p).Text
	}
	if len(text) == 0 {
		b.Fatal("experiment produced no output")
	}
}

// --- one benchmark per table and figure -------------------------------

func BenchmarkTable1Workloads(b *testing.B) { benchExperiment(b, "table1", benchParams) }
func BenchmarkTable3Weibull(b *testing.B)   { benchExperiment(b, "table3", benchParams) }
func BenchmarkFig2aLeadTimeMining(b *testing.B) {
	benchExperiment(b, "fig2a", experiments.Params{Runs: 10, Seed: 42})
}
func BenchmarkFig2bSingleNodeIO(b *testing.B)  { benchExperiment(b, "fig2b", benchParams) }
func BenchmarkFig2cScalingMatrix(b *testing.B) { benchExperiment(b, "fig2c", benchParams) }
func BenchmarkFig4LeadTimeVariabilityM1M2(b *testing.B) {
	benchExperiment(b, "fig4", experiments.Params{Runs: 10, Seed: 42, Apps: []string{"XGC", "POP"}})
}
func BenchmarkTable2FTRatioM1M2(b *testing.B) {
	benchExperiment(b, "table2", experiments.Params{Runs: 10, Seed: 42, Apps: []string{"XGC", "POP"}})
}
func BenchmarkFig6aOverheadTitan(b *testing.B) {
	benchExperiment(b, "fig6a", experiments.Params{Runs: 10, Seed: 42, Apps: []string{"CHIMERA", "XGC", "POP"}})
}
func BenchmarkFig6bOverheadSystem18(b *testing.B) {
	benchExperiment(b, "fig6b", experiments.Params{Runs: 10, Seed: 42, Apps: []string{"CHIMERA", "XGC", "POP"}})
}
func BenchmarkFig6OverheadSystem8(b *testing.B) {
	benchExperiment(b, "fig6sys8", experiments.Params{Runs: 10, Seed: 42, Apps: []string{"XGC", "POP"}})
}
func BenchmarkFig6cLMTransferSweep(b *testing.B) {
	benchExperiment(b, "fig6c", experiments.Params{Runs: 10, Seed: 42, Apps: []string{"XGC", "POP"}})
}
func BenchmarkFig7LeadTimeVariabilityP1P2(b *testing.B) {
	benchExperiment(b, "fig7", experiments.Params{Runs: 10, Seed: 42, Apps: []string{"XGC", "POP"}})
}
func BenchmarkTable4FTRatioP1P2(b *testing.B) {
	benchExperiment(b, "table4", experiments.Params{Runs: 10, Seed: 42, Apps: []string{"XGC", "POP"}})
}
func BenchmarkFig8LMvsPckptShare(b *testing.B) {
	benchExperiment(b, "fig8", experiments.Params{Runs: 10, Seed: 42, Apps: []string{"XGC", "POP"}})
}
func BenchmarkObs9FalseNegativeSweep(b *testing.B) {
	benchExperiment(b, "obs9", experiments.Params{Runs: 10, Seed: 42, Apps: []string{"XGC"}})
}
func BenchmarkAnalyticAlphaSigma(b *testing.B) { benchExperiment(b, "analytic", benchParams) }

// --- ablations: design choices called out in DESIGN.md -----------------

// BenchmarkAblationSingleRunPerModel times one simulation run of each C/R
// model on the largest application — the unit cost every experiment pays.
func BenchmarkAblationSingleRunPerModel(b *testing.B) {
	app, err := workload.ByName("CHIMERA")
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range policy.All() {
		b.Run(m.String(), func(b *testing.B) {
			cfg := crmodel.Config{Model: m, Config: platform.Config{App: app, System: failure.Titan}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				crmodel.Simulate(cfg, uint64(i))
			}
		})
	}
}

// BenchmarkAblationSingleStepRunPerModel is the step-tier sibling of
// BenchmarkAblationSingleRunPerModel: the same platform and seeds through
// stepsim.Simulate, the tier sweeps run on by default, so the two give a
// like-for-like per-run comparison of the tiers.
func BenchmarkAblationSingleStepRunPerModel(b *testing.B) {
	app, err := workload.ByName("CHIMERA")
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range policy.All() {
		b.Run(m.String(), func(b *testing.B) {
			cfg := stepsim.Config{Model: m, Config: platform.Config{App: app, System: failure.Titan}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stepsim.Simulate(cfg, uint64(i))
			}
		})
	}
}

// BenchmarkAblationWorkerScaling measures the parallel runner's scaling
// across worker counts (the runs-in-parallel design decision) on the
// step tier, which every sweep runs on.
func BenchmarkAblationWorkerScaling(b *testing.B) {
	app, err := workload.ByName("XGC")
	if err != nil {
		b.Fatal(err)
	}
	plat := platform.Config{App: app, System: failure.Titan}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.SimulateSweepN(experiments.StepTier(), policy.P2, plat, 32, uint64(i), workers, false)
			}
		})
	}
}

// BenchmarkAblationDrainConcurrency quantifies the asynchronous-drain
// concurrency choice: too few drainers stretch the vulnerable window
// (Fig. 1 case B) and inflate recomputation.
func BenchmarkAblationDrainConcurrency(b *testing.B) {
	app, err := workload.ByName("CHIMERA")
	if err != nil {
		b.Fatal(err)
	}
	for _, conc := range []int{16, 64, 512} {
		ioCfg := iomodel.DefaultSummit()
		ioCfg.DrainConcurrency = conc
		io := iomodel.New(ioCfg)
		b.Run(fmt.Sprintf("drainers=%d", conc), func(b *testing.B) {
			cfg := crmodel.Config{Model: policy.B, Config: platform.Config{App: app, System: failure.Titan, IO: io}}
			var recompute float64
			for i := 0; i < b.N; i++ {
				recompute += crmodel.Simulate(cfg, uint64(i)).Recompute
			}
			b.ReportMetric(recompute/float64(b.N)/3600, "recompute-h/run")
		})
	}
}

// --- substrate micro-benchmarks ----------------------------------------

// BenchmarkSimEngine measures raw DES throughput: two processes handing
// the clock back and forth.
func BenchmarkSimEngine(b *testing.B) {
	b.ReportAllocs()
	env := sim.NewEnv()
	env.Spawn("ticker", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
		}
	})
	b.ResetTimer()
	env.RunAll()
}

// BenchmarkFailureStream measures event-stream generation.
func BenchmarkFailureStream(b *testing.B) {
	b.ReportAllocs()
	s := failure.NewStream(failure.Config{System: failure.Titan, JobNodes: 2272,
		FNRate: failure.DefaultFNRate, FPRate: failure.DefaultFPRate}, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}

// BenchmarkIOMatrixLookup measures the bandwidth interpolation on the hot
// path of every checkpoint pricing.
func BenchmarkIOMatrixLookup(b *testing.B) {
	b.ReportAllocs()
	io := iomodel.New(iomodel.DefaultSummit())
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += io.AggregateBandwidth(1+i%4096, float64(1+i%256))
	}
	_ = sink
}

// BenchmarkPckptEpisode measures a full node-level protocol episode with
// eight vulnerable nodes.
func BenchmarkPckptEpisode(b *testing.B) {
	cfg := pckpt.Config{
		Nodes:     64,
		PerNodeGB: 40,
		IO:        iomodel.New(iomodel.DefaultSummit()),
		LM:        lm.Default(),
		Hybrid:    true,
	}
	var preds []pckpt.Prediction
	for i := 0; i < 8; i++ {
		preds = append(preds, pckpt.Prediction{Node: i * 7, At: float64(i), Lead: float64(5 + i*13)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pckpt.Run(cfg, preds)
	}
}

// BenchmarkNodeGranularRun measures one node-granular hybrid run (48
// node processes, coordinator, priority lane) against the app-level
// equivalent in BenchmarkAblationSingleRunPerModel.
func BenchmarkNodeGranularRun(b *testing.B) {
	app := workload.App{Name: "bench", Nodes: 48, TotalCkptGB: 48 * 20, ComputeHours: 24}
	sys := failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48}
	cfg := nodesim.Config{Policy: policy.P2, Config: platform.Config{App: app, System: sys}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nodesim.Simulate(cfg, uint64(i))
	}
}

// BenchmarkDeshMine measures chain mining over a synthetic log.
func BenchmarkDeshMine(b *testing.B) {
	entries, _ := deshlog.Generate(deshlog.GenConfig{Nodes: 512, Duration: 1e7, Failures: 2000, NoisePerChain: 10}, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deshlog.Mine(entries)
	}
}
