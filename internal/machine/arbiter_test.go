package machine_test

import (
	"math"
	"reflect"
	"testing"

	"pckpt/internal/machine"
	"pckpt/internal/sim"
	"pckpt/internal/stepsim"
)

// near reports a ≈ b within a relative ulp-scale tolerance — flow
// completion times are quotients of the solo inputs, so exact float
// equality is not guaranteed.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+1e-12
}

// An uncontended flow completes at its solo duration: the arbiter never
// speeds a transfer past its solo price.
func TestArbiterSoloFlowCompletesAtSoloDuration(t *testing.T) {
	eng := sim.NewEngine()
	arb := machine.NewBandwidthArbiter(eng, 1000, 4, 1)
	doneAt := -1.0
	arb.StartFlow(0, stepsim.ClassCollective, 100, 10, func() { doneAt = eng.Now() })
	eng.RunAll()
	if !near(doneAt, 10) {
		t.Fatalf("uncontended flow finished at %g, want 10", doneAt)
	}
}

// Two flows whose solo rates each saturate the ceiling fair-share it:
// each runs at half rate and takes twice its solo time. They finish at
// the same instant in start order: on a tie the completion alarm takes
// the first active flow, as one timer per flow, armed in that order,
// would fire.
func TestArbiterFairShareStretchesEqualFlows(t *testing.T) {
	eng := sim.NewEngine()
	arb := machine.NewBandwidthArbiter(eng, 100, 4, 2)
	var at [2]float64
	var order []int
	for i := 0; i < 2; i++ {
		i := i
		arb.StartFlow(i, stepsim.ClassCollective, 1000, 10, func() {
			at[i] = eng.Now()
			order = append(order, i)
		})
	}
	eng.RunAll()
	for i, got := range at {
		if !near(got, 20) {
			t.Fatalf("flow %d finished at %g, want 20 (fair share of a saturated ceiling)", i, got)
		}
	}
	if at[0] != at[1] || !reflect.DeepEqual(order, []int{0, 1}) {
		t.Fatalf("the flows finished at %v in order %v, want one instant in start order [0 1]", at, order)
	}
}

// The vulnerable lane is served first at its full solo rate; fair-share
// traffic gets the remainder.
func TestArbiterVulnerableLanePriority(t *testing.T) {
	eng := sim.NewEngine()
	arb := machine.NewBandwidthArbiter(eng, 100, 4, 2)
	var vulnAt, collAt float64
	// Collective wants the whole ceiling (1000GB at solo rate 100);
	// vulnerable wants 60 (600GB at solo rate 60).
	arb.StartFlow(0, stepsim.ClassCollective, 1000, 10, func() { collAt = eng.Now() })
	arb.StartFlow(1, stepsim.ClassVulnerable, 600, 10, func() { vulnAt = eng.Now() })
	eng.RunAll()
	// Vulnerable runs at 60 throughout: done at 10. Collective gets 40
	// until then (400GB moved), then the full 100: 10 + 600/100 = 16.
	if !near(vulnAt, 10) {
		t.Fatalf("vulnerable flow finished at %g, want 10 (solo rate despite contention)", vulnAt)
	}
	if !near(collAt, 16) {
		t.Fatalf("collective flow finished at %g, want 16", collAt)
	}
}

// Drains contend for the shared slot budget: with one slot, a second
// drain queues (holding no bandwidth) until the first departs.
func TestArbiterDrainSlotsQueueFIFO(t *testing.T) {
	eng := sim.NewEngine()
	arb := machine.NewBandwidthArbiter(eng, 1000, 1, 2)
	var at [2]float64
	for i := 0; i < 2; i++ {
		i := i
		arb.StartFlow(i, stepsim.ClassDrain, 100, 10, func() { at[i] = eng.Now() })
	}
	if got := arb.QueuedDrains(); got != 1 {
		t.Fatalf("QueuedDrains = %d, want 1", got)
	}
	eng.RunAll()
	if !near(at[0], 10) || !near(at[1], 20) {
		t.Fatalf("drains finished at %g and %g, want 10 and 20 (serialized by the slot)", at[0], at[1])
	}
}

// Suspend freezes a flow's remaining volume and releases its bandwidth;
// resume continues from where it stopped.
func TestArbiterSuspendResume(t *testing.T) {
	eng := sim.NewEngine()
	arb := machine.NewBandwidthArbiter(eng, 1000, 4, 1)
	doneAt := -1.0
	id := arb.StartFlow(0, stepsim.ClassCollective, 100, 10, func() { doneAt = eng.Now() })
	eng.After(4, "", func() { arb.SuspendFlow(id) })
	eng.After(7, "", func() { arb.ResumeFlow(id) })
	eng.RunAll()
	// 4s of transfer, 3s frozen, 6s remaining: done at 13.
	if !near(doneAt, 13) {
		t.Fatalf("suspended flow finished at %g, want 13", doneAt)
	}
}

// A cancelled flow never completes, and its bandwidth returns to the
// survivors immediately.
func TestArbiterCancelReleasesBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	arb := machine.NewBandwidthArbiter(eng, 100, 4, 2)
	cancelled, survivorAt := false, -1.0
	id := arb.StartFlow(0, stepsim.ClassCollective, 1000, 10, func() { cancelled = true })
	arb.StartFlow(1, stepsim.ClassCollective, 1000, 10, func() { survivorAt = eng.Now() })
	eng.After(10, "", func() { arb.CancelFlow(id) })
	eng.RunAll()
	if cancelled {
		t.Fatal("cancelled flow's done fired")
	}
	// Fair share (50) for 10s moves 500GB; the survivor then takes the
	// full ceiling, finishing the remaining 500GB in 5s: done at 15.
	if !near(survivorAt, 15) {
		t.Fatalf("survivor finished at %g, want 15", survivorAt)
	}
}

// The conservation property: at every repricing, the summed allocation
// never exceeds the ceiling, and starved time is accounted.
func TestArbiterConservationAndStarvation(t *testing.T) {
	eng := sim.NewEngine()
	const ceiling = 100.0
	arb := machine.NewBandwidthArbiter(eng, ceiling, 4, 3)
	arb.SetAllocObserver(func(at, total, ceil float64) {
		if total > ceil*(1+1e-9) {
			t.Fatalf("allocation %g exceeds ceiling %g at t=%g", total, ceil, at)
		}
	})
	// Two vulnerable flows soak the whole ceiling; the collective flow
	// starves until one finishes.
	arb.StartFlow(0, stepsim.ClassVulnerable, 500, 10, func() {})
	arb.StartFlow(1, stepsim.ClassVulnerable, 500, 10, func() {})
	arb.StartFlow(2, stepsim.ClassCollective, 100, 10, func() {})
	eng.RunAll()
	if got := arb.StarvationSeconds(2); !near(got, 10) {
		t.Fatalf("StarvationSeconds(2) = %g, want 10 (starved until the lane drained)", got)
	}
	if got := arb.StarvationSeconds(0); got != 0 {
		t.Fatalf("StarvationSeconds(0) = %g, want 0", got)
	}
}

// Once a flow completes or is cancelled, its ID finds nothing, even
// after the arbiter hands the flow's record to a new flow: suspending,
// resuming or cancelling the old ID is a no-op, the new flow completes
// at its solo duration, and the old flow's done never fires (again).
func TestArbiterStaleFlowIDFindsNothing(t *testing.T) {
	for _, retire := range []string{"completed", "cancelled"} {
		t.Run(retire, func(t *testing.T) {
			eng := sim.NewEngine()
			arb := machine.NewBandwidthArbiter(eng, 1000, 4, 2)
			oldDone := 0
			old := arb.StartFlow(0, stepsim.ClassCollective, 100, 10, func() { oldDone++ })
			if retire == "completed" {
				eng.RunAll()
				if oldDone != 1 {
					t.Fatalf("the first flow's done fired %d times, want 1", oldDone)
				}
			} else {
				arb.CancelFlow(old)
			}
			// The retired record is the only free one: the next flow
			// reuses it under a new ID.
			start := eng.Now()
			newAt := -1.0
			fresh := arb.StartFlow(1, stepsim.ClassDrain, 200, 20, func() { newAt = eng.Now() })
			if fresh == old {
				t.Fatalf("the new flow reused ID %d", old)
			}
			eng.After(5, "", func() {
				arb.SuspendFlow(old)
				arb.CancelFlow(old)
			})
			eng.After(6, "", func() { arb.ResumeFlow(old) })
			eng.RunAll()
			if !near(newAt-start, 20) {
				t.Fatalf("the new flow finished %gs after its start, want 20: a stale ID reached it", newAt-start)
			}
			want := 0
			if retire == "completed" {
				want = 1
			}
			if oldDone != want {
				t.Fatalf("the %s flow's done fired %d times, want %d", retire, oldDone, want)
			}
		})
	}
}

// A ceiling or drain-budget edge with no flow active and no drain queued
// prices nothing: it calls no observer. The edges still take effect: a
// collective flow started after a blackout edge waits at rate 0 until
// the ceiling returns, accruing exactly that wait as starvation, and a
// drain started after a zero-budget edge queues until a slot returns.
func TestArbiterIdleEdgeSkipsRepricing(t *testing.T) {
	eng := sim.NewEngine()
	arb := machine.NewBandwidthArbiter(eng, 100, 2, 2)
	var priced []float64
	arb.SetAllocObserver(func(at, _, _ float64) { priced = append(priced, at) })
	var collAt, drainAt float64
	eng.After(1, "", func() { arb.SetCeiling(0) })
	eng.After(2, "", func() { arb.SetMaxDrains(0) })
	eng.After(3, "", func() {
		if len(priced) != 0 {
			t.Fatalf("idle edges called the observer at %v", priced)
		}
	})
	eng.After(4, "", func() {
		arb.StartFlow(0, stepsim.ClassCollective, 100, 1, func() { collAt = eng.Now() })
		arb.StartFlow(1, stepsim.ClassDrain, 50, 1, func() { drainAt = eng.Now() })
		if q := arb.QueuedDrains(); q != 1 {
			t.Fatalf("%d drains queued after a zero-budget edge, want 1", q)
		}
	})
	// The collective flow holds 40 of its solo 100 GB/s from t=6: done at
	// 6+100/40. The drain gets the slot at t=9 and runs alone at 40 of
	// its solo 50: done at 9+50/40.
	eng.After(6, "", func() { arb.SetCeiling(40) })
	eng.After(9, "", func() { arb.SetMaxDrains(1) })
	eng.After(20, "", func() {
		arb.SetCeiling(100)
		arb.SetMaxDrains(2)
	})
	eng.RunAll()
	if collAt != 8.5 || drainAt != 10.25 {
		t.Fatalf("the flows completed at %g and %g, want 8.5 and 10.25", collAt, drainAt)
	}
	// Priced: the collective flow's start, the ceiling's return, its
	// completion, the drain's promotion and its completion — no edge
	// made while the arbiter was idle.
	if want := []float64{4, 6, 8.5, 9, 10.25}; !reflect.DeepEqual(priced, want) {
		t.Fatalf("repriced at %v, want %v", priced, want)
	}
	if s, m := arb.StarvationSeconds(0), arb.MaxStarvationStretchSeconds(0); s != 2 || m != 2 {
		t.Fatalf("the collective flow's app starved %g s (longest stretch %g), want 2 (t=4 to 6)", s, m)
	}
	if s := arb.StarvationSeconds(1); s != 0 {
		t.Fatalf("the queued drain's app starved %g s, want 0: a queued drain holds no claim", s)
	}
}
