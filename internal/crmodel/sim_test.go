package crmodel

import (
	"math"
	"runtime"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/iomodel"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/sweep"
	"pckpt/internal/workload"
)

// quietSystem has a job MTBF of ≈4000 h for a 16-node job: rare enough
// that a 10 h run sees no failure (with the fixed seeds used below), yet
// frequent enough that the OCI stays well inside the runtime and the
// periodic checkpoint machinery runs.
var quietSystem = failure.System{Name: "quiet", Shape: 1, ScaleHours: 4000, Nodes: 16}

// stormSystem fails a job every ≈2000 s — frequent enough that proactive
// actions overlap and the rare protocol paths (LM abort) get exercised.
var stormSystem = failure.System{Name: "storm", Shape: 0.7, ScaleHours: 0.4, Nodes: 64}

// smallApp is a fast-to-simulate synthetic application.
var smallApp = workload.App{Name: "tiny", Nodes: 16, TotalCkptGB: 160, ComputeHours: 10}

// failApp is big and long enough on Titan to see several failures per run.
var failApp = workload.App{Name: "faily", Nodes: 2000, TotalCkptGB: 2000, ComputeHours: 200}

func TestSimulateDeterministic(t *testing.T) {
	cfg := Config{Model: policy.P2, Config: platform.Config{App: failApp, System: failure.Titan}}
	a := Simulate(cfg, 12345)
	b := Simulate(cfg, 12345)
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c := Simulate(cfg, 54321)
	if a == c {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestFailureFreeRunHasOnlyCheckpointOverhead(t *testing.T) {
	cfg := Config{Model: policy.B, Config: platform.Config{App: smallApp, System: quietSystem}}
	r := Simulate(cfg, 1)
	if r.Failures != 0 || r.Recompute != 0 || r.Recovery != 0 {
		t.Fatalf("quiet system produced failure work: %+v", r)
	}
	if r.Checkpoints == 0 || r.Overheads.Checkpoint <= 0 {
		t.Fatal("no periodic checkpoints in a long run")
	}
	// Wall time = compute + checkpoint overhead exactly.
	want := smallApp.ComputeSeconds() + r.Overheads.Checkpoint
	if math.Abs(r.WallSeconds-want) > 1e-6 {
		t.Fatalf("wall %f != compute+ckpt %f", r.WallSeconds, want)
	}
	// Checkpoint overhead = count × BB write time.
	io := iomodel.New(iomodel.DefaultSummit())
	tBB := io.BBWriteTime(smallApp.PerNodeGB())
	if got := r.Overheads.Checkpoint / float64(r.Checkpoints); math.Abs(got-tBB) > 1e-9 {
		t.Fatalf("per-checkpoint overhead %.3f, want %.3f", got, tBB)
	}
}

func TestModelBIgnoresPredictions(t *testing.T) {
	cfg := Config{Model: policy.B, Config: platform.Config{App: smallApp, System: failure.Titan}}
	r := Simulate(cfg, 7)
	if r.ProactiveCkpts != 0 || r.Migrations != 0 || r.Avoided != 0 || r.Mitigated != 0 {
		t.Fatalf("base model took proactive actions: %+v", r)
	}
}

func TestP1MitigatesWithPerfectPredictor(t *testing.T) {
	// Tiny footprint → p-ckpt latency ≪ every lead; perfect predictor →
	// every failure predicted. All failures must be mitigated.
	app := workload.App{Name: "micro", Nodes: 8, TotalCkptGB: 0.8, ComputeHours: 2000}
	cfg := Config{Model: policy.P1, Config: platform.Config{App: app, System: failure.Titan, PerfectPredictor: true}}
	var failures, mitigated int
	for seed := uint64(0); seed < 10; seed++ {
		r := Simulate(cfg, seed)
		failures += r.Failures
		mitigated += r.Mitigated
	}
	if failures == 0 {
		t.Fatal("no failures generated; test is vacuous")
	}
	if frac := float64(mitigated) / float64(failures); frac < 0.97 {
		t.Fatalf("perfect-predictor P1 mitigated only %.2f of failures", frac)
	}
}

func TestM2AvoidsWithPerfectPredictor(t *testing.T) {
	app := workload.App{Name: "micro", Nodes: 8, TotalCkptGB: 0.8, ComputeHours: 2000}
	cfg := Config{Model: policy.M2, Config: platform.Config{App: app, System: failure.Titan, PerfectPredictor: true}}
	var struck, avoided int
	for seed := uint64(0); seed < 10; seed++ {
		r := Simulate(cfg, seed)
		struck += r.Failures
		avoided += r.Avoided
	}
	if avoided == 0 {
		t.Fatal("no avoidance under a perfect predictor")
	}
	if frac := float64(avoided) / float64(struck+avoided); frac < 0.97 {
		t.Fatalf("perfect-predictor M2 avoided only %.2f of failures", frac)
	}
}

func TestRecomputeAccountedOnFailure(t *testing.T) {
	cfg := Config{Model: policy.B, Config: platform.Config{App: failApp, System: failure.Titan}}
	sawLoss := false
	for seed := uint64(0); seed < 20 && !sawLoss; seed++ {
		r := Simulate(cfg, seed)
		if r.Failures > 0 {
			if r.Recompute <= 0 {
				t.Fatalf("seed %d: %d failures but zero recompute", seed, r.Failures)
			}
			if r.Recovery <= 0 {
				t.Fatalf("seed %d: %d failures but zero recovery", seed, r.Failures)
			}
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Fatal("no failing run found; widen the seed range")
	}
}

func TestWallTimeExceedsCompute(t *testing.T) {
	for _, m := range policy.All() {
		cfg := Config{Model: m, Config: platform.Config{App: smallApp, System: failure.Titan}}
		r := Simulate(cfg, 3)
		if r.WallSeconds < smallApp.ComputeSeconds() {
			t.Errorf("%s: wall %.0f below compute %.0f", m, r.WallSeconds, smallApp.ComputeSeconds())
		}
	}
}

func TestP2UsesBothMechanisms(t *testing.T) {
	// CHIMERA's θ≈41 s sits mid-distribution, so P2 must exercise both
	// LM (long leads) and p-ckpt (short leads).
	app := testApp(t, "CHIMERA")
	cfg := Config{Model: policy.P2, Config: platform.Config{App: app, System: failure.Titan}}
	var avoided, mitigated int
	for seed := uint64(0); seed < 30; seed++ {
		r := Simulate(cfg, seed)
		avoided += r.Avoided
		mitigated += r.Mitigated
	}
	if avoided == 0 || mitigated == 0 {
		t.Fatalf("hybrid did not use both mechanisms: avoided=%d mitigated=%d", avoided, mitigated)
	}
}

func TestP1NeverMigrates(t *testing.T) {
	cfg := Config{Model: policy.P1, Config: platform.Config{App: testApp(t, "CHIMERA"), System: failure.Titan}}
	for seed := uint64(0); seed < 5; seed++ {
		r := Simulate(cfg, seed)
		if r.Migrations != 0 || r.Avoided != 0 {
			t.Fatalf("P1 migrated: %+v", r)
		}
	}
}

func TestM1NeverMigratesAndP2Aborts(t *testing.T) {
	cfgM1 := Config{Model: policy.M1, Config: platform.Config{App: testApp(t, "CHIMERA"), System: failure.Titan}}
	if r := Simulate(cfgM1, 11); r.Migrations != 0 {
		t.Fatalf("M1 migrated: %+v", r)
	}
	// Under a failure storm, migrations overlap short-lead predictions
	// often enough that the LM-abort path must fire.
	stormApp := workload.App{Name: "stormy", Nodes: 64, TotalCkptGB: 64 * 200, ComputeHours: 4}
	cfgP2 := Config{Model: policy.P2, Config: platform.Config{App: stormApp, System: stormSystem}}
	aborted := 0
	for seed := uint64(0); seed < 20; seed++ {
		aborted += Simulate(cfgP2, seed).AbortedMigrations
	}
	if aborted == 0 {
		t.Fatal("no migration was ever aborted by p-ckpt under a failure storm")
	}
}

// simulateN aggregates n seeds of cfg on this package's engine, the
// reference the paper-claim tests below hold to the paper's numbers.
func simulateN(t *testing.T, cfg Config, n int, baseSeed uint64) *stats.Agg {
	t.Helper()
	results, failed := sweep.Run(n, baseSeed, runtime.GOMAXPROCS(0), cfg.Model.String(), func(seed uint64) stats.RunResult {
		return Simulate(cfg, seed)
	})
	if len(failed) > 0 {
		t.Fatalf("%d of %d runs panicked, first: %+v", len(failed), n, failed[0])
	}
	return stats.NewAgg(results, nil)
}

func TestOverheadReductionOrderingCHIMERA(t *testing.T) {
	// The paper's headline ordering on the largest application:
	// P2 best, P1 better than M2, M1 indistinguishable from B.
	app := testApp(t, "CHIMERA")
	const runs = 300
	totals := map[policy.ID]float64{}
	for _, m := range policy.All() {
		agg := simulateN(t, Config{Model: m, Config: platform.Config{App: app, System: failure.Titan}}, runs, 99)
		totals[m] = agg.MeanOverheads().Total()
	}
	if !(totals[policy.P2] < totals[policy.P1] && totals[policy.P1] < totals[policy.M2] && totals[policy.M2] < totals[policy.M1]) {
		t.Fatalf("ordering violated: B=%.0f M1=%.0f M2=%.0f P1=%.0f P2=%.0f",
			totals[policy.B], totals[policy.M1], totals[policy.M2], totals[policy.P1], totals[policy.P2])
	}
	if red := 100 * (totals[policy.B] - totals[policy.M1]) / totals[policy.B]; math.Abs(red) > 10 {
		t.Fatalf("M1 moved CHIMERA overhead by %.1f%%; the paper finds safeguard useless for large apps", red)
	}
	// P2's total reduction must land in the paper's neighbourhood.
	if red := 100 * (totals[policy.B] - totals[policy.P2]) / totals[policy.B]; red < 35 || red > 70 {
		t.Fatalf("P2 reduction %.1f%% outside the plausible band [35, 70]", red)
	}
}

func TestFTRatiosMatchPaperTable(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration check needs many runs")
	}
	// Spot-check the Table II / Table IV anchors at the reference lead
	// time (0 % change) with generous tolerances.
	checks := []struct {
		app    string
		model  policy.ID
		lo, hi float64
	}{
		{"CHIMERA", policy.M1, 0.0, 0.03},  // paper 0.006
		{"CHIMERA", policy.M2, 0.38, 0.56}, // paper 0.47
		{"CHIMERA", policy.P1, 0.62, 0.80}, // paper 0.70
		{"XGC", policy.M2, 0.58, 0.76},     // paper 0.66
		{"XGC", policy.P1, 0.76, 0.92},     // paper 0.84
		{"POP", policy.P2, 0.76, 0.95},     // paper 0.85
	}
	for _, c := range checks {
		app := testApp(t, c.app)
		agg := simulateN(t, Config{Model: c.model, Config: platform.Config{App: app, System: failure.Titan}}, 150, 4242)
		if ft := agg.MeanFTRatio(); ft < c.lo || ft > c.hi {
			t.Errorf("%s %s FT = %.3f, want in [%.2f, %.2f]", c.app, c.model, ft, c.lo, c.hi)
		}
	}
}
