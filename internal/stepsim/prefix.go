package stepsim

import (
	"math"

	"pckpt/internal/appmodel"
	"pckpt/internal/failure"
	"pckpt/internal/metrics"
	"pckpt/internal/sim"
)

// A cell's failure-free prefix. Until the failure stream delivers its
// first event, a run's checkpoint schedule depends on nothing drawn from
// its seed: the OCI is re-derived from a rate estimate that has observed
// nothing, no node is marked, and an unmetered, untraced run without a
// fault plan draws nothing else. So every seed of such a cell computes
// the same cycles up to its first stream event. The cell simulates them
// once, in a recording run on a failure source with no events, and keeps
// snapshots of it at a few canonical points: where computeStep has just
// armed the compute wake with exactly one drain in flight, the one the
// last BB write started. A later run, once its injector has parked the
// first delivery at T1, restores the latest snapshot before T1: it
// credits the engine the dispatches it skips (sim.Engine.Credit), sets
// the model's state (appmodel.Run.Restore), and re-arms the drain and the
// compute wake with the same deadline arithmetic, in the recording run's
// order, after the parked delivery. Every pending event keeps its
// (time, seq) order, so the run goes on exactly as the full path would.

// prefixSnapshots is how many snapshots a recorded prefix keeps: the k-th
// at the first canonical point at or past progress
// k·ComputeSeconds/(prefixSnapshots+1).
const prefixSnapshots = 4

// snapshot is the recording run's state at one canonical point: its
// time, on the engine and the app's clock alike (a Cell.Run app starts
// at 0), the engine's Dispatched count there, and the model's state. A
// snapshot not taken has dispatched 0: a canonical point follows at least
// the app's start, the injector's start and a BB write.
type snapshot struct {
	at         float64
	dispatched uint64
	q          appmodel.Quiet
}

// prefix is a cell's recorded failure-free prefix: its snapshots in time
// order, those not taken last, in one allocation.
type prefix [prefixSnapshots]snapshot

// taken returns how many snapshots p holds.
func (p *prefix) taken() int {
	n := 0
	for n < len(p) && p[n].dispatched != 0 {
		n++
	}
	return n
}

// noEvents is the failure source of a recording run: its first event
// never comes.
type noEvents struct{}

func (noEvents) Next() failure.Event { return failure.Event{Time: math.Inf(1)} }

// prefixFor returns the prefix an unmetered run of c restarts from, or
// nil. The cell's second such run records it first, once; the first runs
// without it, so a cell that runs once never pays for a recording.
func (c *Cell) prefixFor(reg *metrics.Registry) *prefix {
	if reg != nil || !c.quiet {
		return nil
	}
	if c.quietRuns.Load() < 2 && c.quietRuns.Add(1) < 2 {
		return nil
	}
	c.recorded.Do(c.record)
	return c.prefix
}

// record runs c once through the ordinary path on a failure source with
// no events and keeps the run's snapshots as c's prefix. A cell whose
// drains always overlap passes no canonical point and records nothing. A
// recording run that panics (its watchdog, or a model bug the seeded runs
// meet on their own path) records nothing either.
func (c *Cell) record() {
	defer func() { _ = recover() }()
	a := recordPool.Get().(*appSim)
	eng := sim.NewEngine()
	eng.SetWatchdog(sim.RunEventBudget, 0)
	c.startOn(a, eng, 0, AppOptions{})
	a.stream, a.recording = noEvents{}, true
	eng.RunAll()
	eng.Release()
	c.prefix = a.pre
	a.release()
}

// capture takes a recording run's next snapshot if this canonical point
// is the first at or past its progress mark; computeStep calls it once it
// has armed the compute wake, and appmodel's Capture refuses a point with
// other than one drain in flight. After the last snapshot the run stops:
// nothing later is read.
func (a *appSim) capture() {
	n := 0
	if a.pre != nil {
		n = a.pre.taken()
	}
	if a.Progress < float64(n+1)*a.Plat.ComputeSeconds/(prefixSnapshots+1) {
		return
	}
	var q appmodel.Quiet
	if !a.Capture(&q) {
		return
	}
	if a.pre == nil {
		a.pre = new(prefix)
	}
	a.pre[n] = snapshot{at: a.now(), dispatched: a.eng.Dispatched(), q: q}
	if n+1 == prefixSnapshots {
		a.wakeAlarm.Disarm()
		a.appDone = true
	}
}

// warmStart restarts a run from the latest snapshot of its cell's prefix
// before the first stream event, which the injector has just parked; it
// leaves the run on the full path when no snapshot precedes the event or
// the engine refuses the credit (the watchdog would trip inside the
// skipped stretch, and the full path trips there). The cycle-0 wake the
// app armed at time 0 is dropped; the drain and the wake the snapshot
// had pending are armed again, in the recording run's order.
func (a *appSim) warmStart() {
	p := a.pre
	i := p.taken() - 1
	for i >= 0 && !(p[i].at < a.injectEv.Time) {
		i--
	}
	if i < 0 {
		return
	}
	s := &p[i]
	n := s.dispatched - a.eng.Dispatched()
	if !a.eng.Credit(n, s.at) {
		return
	}
	a.credited = n
	a.wakeAlarm.Disarm()
	a.localNow = s.at
	a.startDrain(a.Restore(&s.q))
	a.computeStep()
}
