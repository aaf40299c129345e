package machine

import (
	"pckpt/internal/faultinject"
	"pckpt/internal/rng"
	"pckpt/internal/sim"
)

// faultDriver runs the machine-scope fault plan against a live
// simulation: three independent Poisson processes (PFS brownouts,
// drain-slot outages, rack crashes), each drawing gaps and windows from
// its own substream of the plan's RNG. Each process is one engine alarm,
// re-armed at its next edge — a window's opening or closing, or the next
// strike — so the whole degraded machine stays a deterministic
// single-goroutine simulation. Every process stops re-arming once all
// tenants have finished, so the engine drains.
//
// The driver lives in its run record: its alarm callbacks are bound
// once, and each run reseeds the injector's substreams in place.
type faultDriver struct {
	r *run
	// fi is the run's injector: &inj when the plan is armed, nil when it
	// is disabled.
	fi  *faultinject.MachineInjector
	inj faultinject.MachineInjector

	baseCeiling float64
	baseDrains  int

	// One alarm per fault process; start binds the enabled ones. The
	// window flags tell an edge whether it opens or closes its window.
	brownout, outage, crash sim.Alarm
	inBrownout, inOutage    bool
	// The alarms' callbacks, bound once: binding and arming them then
	// allocates nothing.
	brownoutFn, outageFn, crashFn func(float64)
}

// bind attaches the driver to its record and binds its callbacks.
func (d *faultDriver) bind(r *run) {
	d.r = r
	d.brownoutFn, d.outageFn, d.crashFn = d.brownoutEdge, d.outageEdge, d.crashStrike
}

// reset readies the driver for a run of plan from the machine seed and
// returns the run's injector: the one faultinject.NewMachine builds from
// the seed's Split(MachineStreamKey) substream, or nil for the zero
// plan.
func (d *faultDriver) reset(plan faultinject.MachineConfig, seed uint64) *faultinject.MachineInjector {
	var root, src rng.Source
	root.Seed(seed)
	root.SplitTo(faultinject.MachineStreamKey, &src)
	d.fi = d.inj.Reset(plan, &src)
	return d.fi
}

// start binds the alarm of every enabled fault process and arms it at
// the process's first gap. Must run before the engine does (time zero).
func (d *faultDriver) start() {
	eng := d.r.eng
	d.baseCeiling = d.r.arb.Ceiling()
	d.baseDrains = d.r.arb.MaxDrains()
	d.inBrownout, d.inOutage = false, false
	mc := d.fi.MachineConfig()
	if mc.BrownoutRatePerHour > 0 {
		eng.Bind(&d.brownout, "machine-brownout", d.brownoutFn)
		d.arm(&d.brownout, d.fi.NextBrownoutGap())
	}
	if mc.DrainOutageRatePerHour > 0 {
		eng.Bind(&d.outage, "machine-drain-outage", d.outageFn)
		d.arm(&d.outage, d.fi.NextDrainOutageGap())
	}
	if mc.CrashRatePerHour > 0 {
		eng.Bind(&d.crash, "machine-crash", d.crashFn)
		d.arm(&d.crash, d.fi.NextCrashGap())
	}
}

// arm sets a fault alarm to fire delay seconds from now.
func (d *faultDriver) arm(a *sim.Alarm, delay float64) {
	a.Arm(d.r.eng.Now()+delay, 0)
}

// allDone reports whether every job has left the machine for good —
// completed, or truncated past its crash-retry bound.
func (d *faultDriver) allDone() bool {
	for _, t := range d.r.tenants[:len(d.r.p.cfg.Jobs)] {
		if !t.finished {
			return false
		}
	}
	return true
}

// brownoutEdge opens or closes a brownout window. Opening, the
// arbiter's ceiling drops to base×factor (zero on a blackout) and every
// in-flight transfer reprices mid-stream; closing, the ceiling returns
// to base and, unless every tenant has finished, the next gap is drawn.
// Windows are sequential.
func (d *faultDriver) brownoutEdge(float64) {
	if d.inBrownout {
		d.inBrownout = false
		d.r.arb.SetCeiling(d.baseCeiling)
		if !d.allDone() {
			d.arm(&d.brownout, d.fi.NextBrownoutGap())
		}
		return
	}
	if d.allDone() {
		return
	}
	dur, factor := d.fi.BrownoutWindow()
	d.r.res.Brownouts++
	d.r.res.BrownoutSeconds += dur
	d.r.arb.SetCeiling(d.baseCeiling * factor)
	d.inBrownout = true
	d.arm(&d.brownout, dur)
}

// outageEdge opens or closes a drain-slot outage. Opening, the
// machine-wide drain budget shrinks (to no less than zero) and the most
// recently admitted in-flight drains requeue FIFO at the head of the
// slot queue; closing, the budget returns to base and, unless every
// tenant has finished, the next gap is drawn.
func (d *faultDriver) outageEdge(float64) {
	if d.inOutage {
		d.inOutage = false
		d.r.arb.SetMaxDrains(d.baseDrains)
		if !d.allDone() {
			d.arm(&d.outage, d.fi.NextDrainOutageGap())
		}
		return
	}
	if d.allDone() {
		return
	}
	dur, slots := d.fi.DrainOutageWindow()
	d.r.res.DrainOutages++
	d.r.arb.SetMaxDrains(max(d.baseDrains-slots, 0))
	d.inOutage = true
	d.arm(&d.outage, dur)
}

// crashStrike fires one planned rack crash. The rack is drawn
// unconditionally — the plan's timeline is independent of machine state
// — and every running tenant of that rack aborts: its flows leave the
// arbiter, its nodes return to the pool, and it either re-enters the
// admission queue after an exponential backoff or (past the retry
// bound) ends as a truncated run.
func (d *faultDriver) crashStrike(float64) {
	if d.allDone() {
		return
	}
	p := d.r.p
	rack := d.fi.CrashRack(p.numRacks)
	struck := false
	for j, t := range d.r.tenants[:len(p.cfg.Jobs)] {
		if p.racks[j] == rack && t.running {
			d.crashTenant(t)
			struck = true
		}
	}
	if struck {
		d.r.tryAdmit()
	}
	d.arm(&d.crash, d.fi.NextCrashGap())
}

// crashTenant aborts one running job and routes it through the crash
// lifecycle: crash → requeue (bounded, exponential backoff) or
// crash → give-up with the truncated-run marker.
func (d *faultDriver) crashTenant(t *tenant) {
	r := d.r
	now := r.eng.Now()
	nodes := r.p.cfg.Jobs[t.job].need()
	partial := t.handle.Abort()
	t.handle = nil
	t.running = false
	t.crashes++
	r.freeNodes += nodes
	jr := &r.res.Jobs[t.job]
	jr.Crashes++
	r.res.TenantCrashes++
	r.decisions = append(r.decisions, RoutingDecision{Kind: DecisionCrash, Job: t.job, AtSeconds: now, Nodes: nodes})
	if t.crashes > d.fi.MachineConfig().CrashMaxRetries {
		// Retry budget exhausted: the job leaves the machine as the
		// truncated partial run — the PR 5/PR 9 degradation marker —
		// rather than panicking or spinning forever.
		jr.Run = partial
		jr.EndSeconds = now
		t.finished = true
		r.decisions = append(r.decisions, RoutingDecision{Kind: DecisionGiveUp, Job: t.job, AtSeconds: now, Nodes: nodes})
		return
	}
	r.res.CrashRequeues++
	r.eng.After(d.fi.CrashBackoffSeconds(t.crashes), "machine-requeue", t.requeueFn)
}
