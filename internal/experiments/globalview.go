package experiments

import (
	"fmt"

	"pckpt/internal/globalview"
	"pckpt/internal/iomodel"
	"pckpt/internal/rng"
	"pckpt/internal/tablefmt"
)

// GlobalView evaluates the extension the paper marks out of scope:
// machine-wide p-ckpt coordination across co-resident applications. A
// bursty prediction workload is replayed under per-job and global
// coordination; the global view's vulnerable-first scheduling must win
// increasingly as episode overlap grows.
func GlobalView(p Params) Result {
	p = p.withDefaults()
	io := iomodel.New(iomodel.DefaultSummit())
	cfg := globalview.Config{
		Jobs: []globalview.Job{
			{Name: "S3D-A", Nodes: 505, PerNodeGB: 40},
			{Name: "S3D-B", Nodes: 505, PerNodeGB: 40},
			{Name: "XGC-C", Nodes: 1515, PerNodeGB: 98.76},
		},
		IO: io,
	}
	// Burst intensity: episodes per job over a fixed ten-minute horizon.
	// Leads give an uncontended vulnerable commit a 2.5× margin, so only
	// cross-job contention (bulk floods, queueing) breaks deadlines.
	const horizon = 600.0
	t := tablefmt.NewTable("episodes/job", "FT per-job", "FT global", "Δ", "peak sharers per-job")
	values := map[string]float64{}
	src := rng.New(p.Seed)
	for _, burst := range []int{1, 2, 4, 8} {
		var preds []globalview.Prediction
		for e := 0; e < burst*len(cfg.Jobs); e++ {
			job := e % len(cfg.Jobs)
			lead := io.SingleNodePFSWriteTime(cfg.Jobs[job].PerNodeGB) * 2.5
			preds = append(preds, globalview.Prediction{
				Job:  job,
				Node: e,
				At:   src.Uniform(0, horizon),
				Lead: lead,
			})
		}
		perJob, global := cfg, cfg
		perJob.Mode = globalview.PerJob
		global.Mode = globalview.Global
		rPer := globalview.Run(perJob, preds)
		rGlob := globalview.Run(global, preds)
		t.AddRow(fmt.Sprint(burst),
			fmt.Sprintf("%.3f", rPer.FTRatio()),
			fmt.Sprintf("%.3f", rGlob.FTRatio()),
			fmt.Sprintf("%+.3f", rGlob.FTRatio()-rPer.FTRatio()),
			fmt.Sprint(rPer.PeakLaneSharers))
		values[fmt.Sprintf("burst=%d/ft-per-job", burst)] = rPer.FTRatio()
		values[fmt.Sprintf("burst=%d/ft-global", burst)] = rGlob.FTRatio()
	}
	text := t.String() + "\n(three co-resident jobs; tight leads sized for uncontended commits —\n" +
		"the global vulnerable-first view preserves them as bursts overlap)\n"
	return Result{Text: text, Values: values}
}
