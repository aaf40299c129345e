package pckpt_test

import (
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/pckpt"
	"pckpt/internal/platform"
	"pckpt/internal/workload"
)

// benchPreds builds one k-node drain scenario on the crossval platform:
// arrivals land while earlier writes are still in flight (so the whole
// set drains in a single episode) and every deadline clears the episode
// end (so no failure strikes mid-drain). The same scenario shape the
// drain-invariant property tests replay, minus the randomness.
func benchPreds(k int, w, phase2 float64) []pckpt.Prediction {
	episodeEnd := float64(k)*w + phase2
	preds := make([]pckpt.Prediction, k)
	at := 0.0
	for i := range preds {
		if i > 0 {
			at += 0.5 * w
		}
		// Scatter deadlines so the queue actually reorders.
		lead := episodeEnd + float64((i*7)%k+2)*w
		preds[i] = pckpt.Prediction{Node: 1 + i*3, At: at, Lead: lead}
	}
	return preds
}

// BenchmarkEpisodeProcess prices one full p-ckpt episode on the
// process-per-node engine: Run spawns a goroutine per prediction plus
// the arbiter, and every grant is a park/unpark handoff. Its
// commits/sec against BenchmarkStepEpisodeDrain in internal/stepsim is
// the episode-machinery headroom claim benchfmt gates on.
func BenchmarkEpisodeProcess(b *testing.B) {
	plat := platform.Config{
		App:    workload.App{Name: "bench-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24},
		System: failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48},
	}.WithDefaults()
	d := plat.Derive()
	const k = 16
	w := d.SingleNodePFSWrite
	phase2 := plat.IO.PFSWriteTransfer(plat.App.Nodes-k, d.PerNodeGB).Seconds
	preds := benchPreds(k, w, phase2)
	cfg := pckpt.Config{Nodes: plat.App.Nodes, PerNodeGB: d.PerNodeGB, IO: plat.IO}
	b.ResetTimer()
	commits := 0
	for i := 0; i < b.N; i++ {
		res := pckpt.Run(cfg, preds)
		commits += len(res.CommitOrder)
	}
	b.StopTimer()
	if commits != k*b.N {
		b.Fatalf("committed %d nodes, want %d", commits, k*b.N)
	}
	b.ReportMetric(float64(commits)/b.Elapsed().Seconds(), "commits/sec")
}
