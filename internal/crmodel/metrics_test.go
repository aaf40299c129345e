package crmodel

import (
	"testing"

	"pckpt/internal/trace"
)

// TestUnmeteredHotPathZeroAllocs guards the subsystem's core promise:
// with metering and tracing both off (nil registry → nil handles, nil
// recorder), the per-cycle instrumentation sites allocate nothing.
func TestUnmeteredHotPathZeroAllocs(t *testing.T) {
	a := &appSim{} // zero value: cfg.Trace nil, every met handle nil
	allocs := testing.AllocsPerRun(1000, func() {
		a.trace(trace.BBWrite, -1, "")
		a.met.BBWrite.Observe(135.5)
		a.met.CommitLat.Observe(2.25)
		a.met.PFSGBs.Observe(2400)
		a.met.LeadConsumed.Observe(21)
		a.met.DrainDepth.Set(10, 1)
		a.met.VulnNodes.Set(10, 2)
		a.met.BBAborted.Inc()
		a.met.EpisodesAbandoned.Inc()
	})
	if allocs != 0 {
		t.Fatalf("unmetered instrumentation sites allocate %.1f per cycle, want 0", allocs)
	}
}
