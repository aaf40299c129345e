package crmodel

import (
	"math"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/iomodel"
	"pckpt/internal/lm"
	"pckpt/internal/pckpt"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/workload"
)

// TestEpisodeTimingMatchesProtocol cross-checks the two granularities of
// the p-ckpt implementation (DESIGN.md key decision 1): the closed-form
// episode pricing used by the application-level C/R models must equal the
// makespan of the node-level message-passing protocol in
// internal/pckpt, for matching configurations.
func TestEpisodeTimingMatchesProtocol(t *testing.T) {
	io := iomodel.New(iomodel.DefaultSummit())
	cases := []struct {
		name       string
		nodes      int
		perNodeGB  float64
		vulnerable int
	}{
		{"one-vulnerable-small", 64, 5, 1},
		{"one-vulnerable-large", 505, 40, 1},
		{"three-vulnerable", 128, 20, 3},
		{"many-vulnerable", 256, 10, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Node-level protocol: all predictions simultaneous with
			// ample lead, forcing the pure p-ckpt path.
			cfg := pckpt.Config{Nodes: c.nodes, PerNodeGB: c.perNodeGB, IO: io, LM: lm.Default(), Hybrid: false}
			var preds []pckpt.Prediction
			for i := 0; i < c.vulnerable; i++ {
				preds = append(preds, pckpt.Prediction{Node: i, At: 0, Lead: 1e6})
			}
			res := pckpt.Run(cfg, preds)

			// Application-level closed form: phase 1 serializes the
			// vulnerable nodes' uncontended writes; phase 2 is the
			// healthy nodes' aggregate write. This is exactly what
			// appSim.pckptEpisode charges the application.
			phase1 := float64(c.vulnerable) * io.SingleNodePFSWriteTime(c.perNodeGB)
			phase2 := io.PFSWriteTime(c.nodes-c.vulnerable, c.perNodeGB)
			if rel := math.Abs(res.Phase1End-phase1) / phase1; rel > 1e-9 {
				t.Fatalf("phase-1 mismatch: protocol %.4f vs closed form %.4f", res.Phase1End, phase1)
			}
			if want := phase1 + phase2; math.Abs(res.Phase2End-want)/want > 1e-9 {
				t.Fatalf("episode makespan mismatch: protocol %.4f vs closed form %.4f", res.Phase2End, want)
			}
		})
	}
}

// TestEpisodeBlockedTimeMatchesProtocol verifies the same equivalence
// through the full C/R simulation: a single prediction on an otherwise
// failure-free system must charge the application exactly the protocol's
// episode makespan plus its periodic checkpoints.
func TestEpisodeBlockedTimeMatchesProtocol(t *testing.T) {
	io := iomodel.New(iomodel.DefaultSummit())
	app := workload.App{Name: "probe", Nodes: 100, TotalCkptGB: 1000, ComputeHours: 10}

	// A system quiet enough that the predictor's spurious stream is the
	// only activity: with FP>0 and a huge MTBF, real failures never
	// arrive but spurious predictions (which trigger full episodes) do.
	quiet := failure.System{Name: "quiet", Shape: 1, ScaleHours: 200, Nodes: app.Nodes}
	cfg := Config{Model: policy.P1, Config: platform.Config{App: app, System: quiet, FNRate: 1e-9, FPRate: 0.9}}

	perNode := app.PerNodeGB()
	episode := io.SingleNodePFSWriteTime(perNode) + io.PFSWriteTime(app.Nodes-1, perNode)
	tBB := io.BBWriteTime(perNode)

	for seed := uint64(0); seed < 30; seed++ {
		r := Simulate(cfg, seed)
		if r.Failures > 0 || r.ProactiveCkpts == 0 {
			continue // want a failure-free run that still saw spurious episodes
		}
		// Checkpoint overhead decomposes exactly into periodic BB writes
		// plus whole episodes (no failures interrupt anything).
		got := r.Overheads.Checkpoint - float64(r.Checkpoints)*tBB
		episodes := got / episode
		if math.Abs(episodes-math.Round(episodes)) > 1e-6 || math.Round(episodes) != float64(r.ProactiveCkpts) {
			t.Fatalf("seed %d: episode-blocked time %.4f is not %d × %.4f", seed, got, r.ProactiveCkpts, episode)
		}
		return
	}
	t.Fatal("no suitable failure-free run with spurious episodes found")
}
