package stepsim

import (
	"fmt"
	"math"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/iomodel"
	"pckpt/internal/oci"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/sim"
	"pckpt/internal/trace"
	"pckpt/internal/workload"
)

// TestCycleLossOracle holds model B's restart rule to the paper's Fig. 1,
// as oci.CycleLoss states it. Every failure of traced B runs on two clean
// platforms (no injected faults, unbounded spares) is placed in its
// checkpoint cycle, and the rollback the run charged for it must equal
// CycleLoss's loss: case A (compute after the newest checkpoint
// drained), case B (compute while it still drains) and case C (the
// synchronous BB write). Each platform's drain (tDrain) is long enough
// for case B to be common and shorter than every interval, so at most
// one drain is in flight.
//
// Fig. 1 draws one cycle in isolation. Where the simulator's rule and
// that drawing differ, the test pins the simulator's rule instead (see
// DESIGN.md, "Fig. 1 loss cases"):
//
//   - Fig. 1 draws every interval alike, but the OCI is re-derived each
//     cycle: case B's loss reaches back through the interval the lost
//     checkpoint actually covered, so CycleLoss gets that interval.
//   - A failure during recovery charges nothing: progress already sits at
//     the restart point, which no later failure can lower.
//   - After a case-B rollback the app re-executes work below the newest
//     checkpoint, which the healthy nodes still hold on their burst
//     buffers. Once that checkpoint's drain lands, a failure restarts from
//     it: the loss is the progress beyond it, nothing before re-execution
//     reaches it. Until then the restart is the older PFS copy.
//
// A cycle restarts where the run resumes computing after a failure, with
// whatever is left of the drain window then.
func TestCycleLossOracle(t *testing.T) {
	io := iomodel.DefaultSummit()
	io.DrainConcurrency = 8 // six and twelve drain waves: tDrain ≈ 186 and 218 s
	plats := []platform.Config{{
		App:    workload.App{Name: "cycle", Nodes: 48, TotalCkptGB: 8160, ComputeHours: 6},
		System: failure.System{Name: "hostile", Shape: 0.75, ScaleHours: 0.5, Nodes: 48},
		IO:     iomodel.New(io),
	}, {
		App:    workload.App{Name: "cycle-wide", Nodes: 96, TotalCkptGB: 9600, ComputeHours: 6},
		System: failure.System{Name: "hostile", Shape: 0.75, ScaleHours: 0.5, Nodes: 96},
		IO:     iomodel.New(io),
	}}
	var cases [3]int
	var pinned [3]int // recovery, re-execution before the drain, after it
	for _, plat := range plats {
		for seed := uint64(1); seed <= 12; seed++ {
			rec := &cycleRecorder{t: t, run: fmt.Sprintf("%s seed %d", plat.App.Name, seed), cases: &cases, pinned: &pinned}
			cfg := Config{Model: policy.B, Config: plat, Trace: rec}
			eng := sim.NewEngine()
			rec.a = startFresh(eng, cfg, seed)
			d := rec.a.Plat
			rec.tBB, rec.tDrain = d.BBWrite, d.Drain
			rec.pfs, rec.drained = -1, true
			eng.RunAll()
			eng.Release()
			if rec.minInterval <= d.Drain {
				t.Fatalf("%s: an interval of %g s does not cover the %g s drain; two drains were in flight", rec.run, rec.minInterval, d.Drain)
			}
		}
	}
	t.Logf("Fig. 1 cases A/B/C: %v; pinned recovery/re-execution: %v", cases, pinned)
	for c, n := range cases {
		if n == 0 {
			t.Errorf("no failure in case %v", oci.LossCase(c))
		}
	}
}

// cycleRecorder follows a traced B run through its checkpoint cycles and
// checks each failure's charged rollback as it is recorded.
type cycleRecorder struct {
	t      *testing.T
	run    string
	a      *appSim
	tBB    float64
	tDrain float64
	cases  *[3]int
	pinned *[3]int

	// newest is the progress of the newest BB checkpoint, written at
	// newestT; pfs that of the newest drained one (-1: none), drained
	// whether they are the same checkpoint.
	newest, newestT, pfs float64
	drained              bool
	// The cycle began at start with progress base, heading for the BB
	// write at a.Target; window is what was left of the newest
	// checkpoint's drain then.
	start, base, window float64
	inRecovery          bool
	recompute           float64
	minInterval         float64
}

func (r *cycleRecorder) Record(e trace.Event) {
	switch e.Kind {
	case trace.BBWrite:
		if r.minInterval == 0 || e.Progress-r.newest < r.minInterval {
			r.minInterval = e.Progress - r.newest
		}
		r.newest, r.newestT, r.drained = e.Progress, e.T, false
	case trace.DrainDone:
		r.pfs, r.drained = r.newest, true
	case trace.CycleStart, trace.RecoveryDone:
		r.start, r.base, r.inRecovery = e.T, e.Progress, false
		r.window = 0
		if !r.drained {
			r.window = r.newestT + r.tDrain - e.T
		}
	case trace.Failure:
		r.failure(e)
	}
}

func (r *cycleRecorder) failure(e trace.Event) {
	charged := r.a.Res.Recompute - r.recompute
	r.recompute = r.a.Res.Recompute
	defer func() { r.inRecovery = true }()
	if r.inRecovery {
		r.pinned[0]++
		if charged != 0 {
			r.t.Errorf("%s: failure at t=%g during recovery charged %g s", r.run, e.T, charged)
		}
		return
	}
	offset := e.T - r.start
	interval := r.a.Target - r.base
	progress := r.a.Target // the BB write: the whole interval is computed
	if offset < interval {
		progress = r.base + offset
	}
	if r.base < r.newest {
		// Re-executing below the newest checkpoint after a case-B rollback.
		restart, i := max(r.pfs, 0), 1
		if r.drained {
			restart, i = r.newest, 2
		}
		r.pinned[i]++
		if want := max(progress-restart, 0); math.Abs(charged-want) > 1e-6 {
			r.t.Errorf("%s: re-execution failure at t=%g charged %g s, want %g (restart %g)", r.run, e.T, charged, want, restart)
		}
		return
	}
	loss, c := oci.CycleLoss(offset, interval, r.tBB, r.window)
	if c == oci.LossAsyncDrain {
		loss, _ = oci.CycleLoss(offset, r.newest-max(r.pfs, 0), r.tBB, r.window)
	}
	r.cases[c]++
	if math.Abs(charged-loss) > 1e-6 {
		r.t.Errorf("%s: %v failure at t=%g (offset %g of interval %g, drain window %g) charged %g s, CycleLoss %g",
			r.run, c, e.T, offset, interval, r.window, charged, loss)
	}
}
