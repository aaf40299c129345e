package nodesim

import (
	"math"
	"testing"

	"pckpt/internal/crmodel"
	"pckpt/internal/failure"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/workload"
)

// smallApp keeps node-granular runs fast (one process per node).
var smallApp = workload.App{Name: "small", Nodes: 48, TotalCkptGB: 48 * 20, ComputeHours: 24}

// busySystem fails the small job every ≈40 h, so a 24 h run sees some
// failures across seeds without storming.
var busySystem = failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48}

func TestPolicyString(t *testing.T) {
	if policy.B.NodeLabel() != "base" || policy.P1.NodeLabel() != "p-ckpt" || policy.P2.NodeLabel() != "hybrid" {
		t.Fatal("policy node labels wrong")
	}
	if policy.B.String() != "B" || policy.P1.String() != "P1" || policy.P2.String() != "P2" {
		t.Fatal("policy catalogue names wrong")
	}
}

func TestValidate(t *testing.T) {
	ok := Config{Policy: policy.P2, Config: platform.Config{App: smallApp, System: busySystem}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Policy: policy.P2, Config: platform.Config{App: workload.App{}, System: busySystem}},
		{Policy: policy.P2, Config: platform.Config{App: smallApp, System: failure.System{}}},
		{Policy: 9, Config: platform.Config{App: smallApp, System: busySystem}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDeterministic(t *testing.T) {
	cfg := Config{Policy: policy.P2, Config: platform.Config{App: smallApp, System: busySystem}}
	a := Simulate(cfg, 5)
	b := Simulate(cfg, 5)
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestFailureFreeBaseRun(t *testing.T) {
	quiet := failure.System{Name: "quiet", Shape: 1, ScaleHours: 4000, Nodes: 48}
	cfg := Config{Policy: policy.B, Config: platform.Config{App: smallApp, System: quiet}}
	r := Simulate(cfg, 1)
	if r.Failures != 0 || r.Recompute != 0 || r.Recovery != 0 {
		t.Fatalf("quiet run saw failure work: %+v", r)
	}
	if r.Checkpoints == 0 {
		t.Fatal("no periodic checkpoints")
	}
	want := smallApp.ComputeSeconds() + r.Overheads.Checkpoint
	if math.Abs(r.WallSeconds-want) > 1e-6 {
		t.Fatalf("wall %.3f != compute + ckpt %.3f", r.WallSeconds, want)
	}
}

// TestCrossValidatesAgainstCrmodel is the promise of this package: the
// node-granular tier and the application-level tier consume identical
// failure streams (same stream config, same seed) and must agree on what
// happened — event counts exactly, overhead accounting closely.
func TestCrossValidatesAgainstCrmodel(t *testing.T) {
	for _, pol := range []policy.ID{policy.B, policy.P1, policy.P2} {
		var wallDiff, totalNode, totalApp float64
		var fails, mitig, avoid, failsC, mitigC, avoidC int
		for seed := uint64(0); seed < 12; seed++ {
			nr := Simulate(Config{Policy: pol, Config: platform.Config{App: smallApp, System: busySystem}}, seed)
			cr := crmodel.Simulate(crmodel.Config{Model: pol, Config: platform.Config{App: smallApp, System: busySystem}}, seed)
			// Exact agreement on the failure stream's bookkeeping.
			if nr.Failures != cr.Failures || nr.Predicted != cr.Predicted {
				t.Fatalf("%v seed %d: stream divergence (node %d/%d vs app %d/%d)",
					pol, seed, nr.Failures, nr.Predicted, cr.Failures, cr.Predicted)
			}
			fails += nr.Failures
			mitig += nr.Mitigated
			avoid += nr.Avoided
			failsC += cr.Failures
			mitigC += cr.Mitigated
			avoidC += cr.Avoided
			wallDiff += math.Abs(nr.WallSeconds - cr.WallSeconds)
			totalNode += nr.Total()
			totalApp += cr.Total()
		}
		// Aggregate mitigation/avoidance must match closely (corner-case
		// ordering may differ by a single event across 12 runs).
		if d := math.Abs(float64(mitig - mitigC)); d > 2 {
			t.Errorf("%v: mitigated counts diverge: node %d vs app %d", pol, mitig, mitigC)
		}
		if avoid != avoidC {
			t.Errorf("%v: avoided counts diverge: node %d vs app %d", pol, avoid, avoidC)
		}
		// Total overheads within 10 % (both tiers implement the same
		// pricing; differences come only from rare corner orderings).
		if totalApp > 0 {
			if rel := math.Abs(totalNode-totalApp) / totalApp; rel > 0.10 {
				t.Errorf("%v: total overhead diverges %.1f%% (node %.0fs vs app %.0fs)",
					pol, rel*100, totalNode, totalApp)
			}
		}
		// Mean wall-clock difference within a minute on a day-long job.
		if wallDiff/12 > 60 {
			t.Errorf("%v: mean wall divergence %.1fs", pol, wallDiff/12)
		}
		_ = fails
	}
}

func TestPckptMitigatesAtNodeGranularity(t *testing.T) {
	cfg := Config{Policy: policy.P1, Config: platform.Config{App: smallApp, System: busySystem}}
	var failures, mitigated, proactive int
	for seed := uint64(0); seed < 30; seed++ {
		r := Simulate(cfg, seed)
		failures += r.Failures
		mitigated += r.Mitigated
		proactive += r.ProactiveCkpts
	}
	if failures == 0 || proactive == 0 {
		t.Fatalf("test vacuous: failures=%d proactive=%d", failures, proactive)
	}
	// The small footprint means nearly every predicted failure commits in
	// time: expect a healthy mitigation fraction.
	if frac := float64(mitigated) / float64(failures); frac < 0.5 {
		t.Fatalf("mitigated only %.2f of struck failures", frac)
	}
}

func TestHybridUsesMigrationAtNodeGranularity(t *testing.T) {
	cfg := Config{Policy: policy.P2, Config: platform.Config{App: smallApp, System: busySystem}}
	var avoided, migrations int
	for seed := uint64(0); seed < 30; seed++ {
		r := Simulate(cfg, seed)
		avoided += r.Avoided
		migrations += r.Migrations
	}
	if migrations == 0 || avoided == 0 {
		t.Fatalf("hybrid never migrated: migrations=%d avoided=%d", migrations, avoided)
	}
}

func TestBasePolicyTakesNoProactiveAction(t *testing.T) {
	cfg := Config{Policy: policy.B, Config: platform.Config{App: smallApp, System: busySystem}}
	for seed := uint64(0); seed < 10; seed++ {
		r := Simulate(cfg, seed)
		if r.ProactiveCkpts != 0 || r.Migrations != 0 || r.Mitigated != 0 || r.Avoided != 0 {
			t.Fatalf("seed %d: base policy acted: %+v", seed, r)
		}
	}
}

func TestLaneSerializesVulnerableWrites(t *testing.T) {
	// A failure storm forces concurrent vulnerable nodes; the priority
	// lane must keep the run consistent (no deadlock, all failures
	// accounted, wall time finite).
	storm := failure.System{Name: "storm", Shape: 0.7, ScaleHours: 1.5, Nodes: 32}
	app := workload.App{Name: "stormy", Nodes: 32, TotalCkptGB: 32 * 30, ComputeHours: 3}
	cfg := Config{Policy: policy.P1, Config: platform.Config{App: app, System: storm}}
	for seed := uint64(0); seed < 5; seed++ {
		r := Simulate(cfg, seed)
		if r.WallSeconds < app.ComputeSeconds() {
			t.Fatalf("seed %d: wall %.0f below compute", seed, r.WallSeconds)
		}
		if r.Failures == 0 {
			t.Fatalf("seed %d: storm produced no failures", seed)
		}
	}
}
