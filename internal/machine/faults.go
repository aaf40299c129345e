package machine

import (
	"pckpt/internal/faultinject"
	"pckpt/internal/rng"
)

// faultDriver runs the machine-scope fault plan against a live
// simulation: three independent Poisson processes (PFS brownouts,
// drain-slot outages, rack crashes), each drawing gaps and windows from
// its own substream of the plan's RNG, scheduled as ordinary engine
// events so the whole degraded machine stays a deterministic
// single-goroutine simulation. Every process stops rescheduling once
// all tenants have finished, so the engine drains.
//
// The driver lives in its run record: its handlers are bound once, and
// each run reseeds the injector's substreams in place.
type faultDriver struct {
	r *run
	// fi is the run's injector: &inj when the plan is armed, nil when it
	// is disabled.
	fi  *faultinject.MachineInjector
	inj faultinject.MachineInjector

	baseCeiling float64
	baseDrains  int

	// The five event handlers, bound once: scheduling a window edge or a
	// strike then allocates nothing.
	brownoutOpenFn, brownoutCloseFn, drainOutageOpenFn, drainOutageCloseFn, crashStrikeFn func()
}

// bind attaches the driver to its record and binds its handlers.
func (d *faultDriver) bind(r *run) {
	d.r = r
	d.brownoutOpenFn, d.brownoutCloseFn = d.brownoutOpen, d.brownoutClose
	d.drainOutageOpenFn, d.drainOutageCloseFn = d.drainOutageOpen, d.drainOutageClose
	d.crashStrikeFn = d.crashStrike
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

// start schedules the first gap of every enabled fault process. Must run
// before the engine does (time zero).
func (d *faultDriver) start() {
	eng := d.r.eng
	d.baseCeiling = d.r.arb.Ceiling()
	d.baseDrains = d.r.arb.MaxDrains()
	mc := d.fi.MachineConfig()
	if mc.BrownoutRatePerHour > 0 {
		eng.After(d.fi.NextBrownoutGap(), "machine-brownout", d.brownoutOpenFn)
	}
	if mc.DrainOutageRatePerHour > 0 {
		eng.After(d.fi.NextDrainOutageGap(), "machine-drain-outage", d.drainOutageOpenFn)
	}
	if mc.CrashRatePerHour > 0 {
		eng.After(d.fi.NextCrashGap(), "machine-crash", d.crashStrikeFn)
	}
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

// brownoutOpen starts one brownout window: the arbiter's ceiling drops
// to base×factor (zero on a blackout) and every in-flight transfer
// reprices mid-stream. Windows are sequential — the next gap is drawn
// when this window closes.
func (d *faultDriver) brownoutOpen() {
	if d.allDone() {
		return
	}
	dur, factor := d.fi.BrownoutWindow()
	d.r.res.Brownouts++
	d.r.res.BrownoutSeconds += dur
	d.r.arb.SetCeiling(d.baseCeiling * factor)
	d.r.eng.After(dur, "machine-brownout", d.brownoutCloseFn)
}

// brownoutClose ends the open brownout window: the ceiling returns to
// base and, unless every tenant has finished, the next gap is drawn.
func (d *faultDriver) brownoutClose() {
	d.r.arb.SetCeiling(d.baseCeiling)
	if d.allDone() {
		return
	}
	d.r.eng.After(d.fi.NextBrownoutGap(), "machine-brownout", d.brownoutOpenFn)
}

// drainOutageOpen starts one drain-slot outage: the machine-wide drain
// budget shrinks (to no less than zero) and the most recently admitted
// in-flight drains requeue FIFO at the head of the slot queue.
func (d *faultDriver) drainOutageOpen() {
	if d.allDone() {
		return
	}
	dur, slots := d.fi.DrainOutageWindow()
	d.r.res.DrainOutages++
	d.r.arb.SetMaxDrains(max(d.baseDrains-slots, 0))
	d.r.eng.After(dur, "machine-drain-outage", d.drainOutageCloseFn)
}

// drainOutageClose ends the open outage: the drain budget returns to
// base and, unless every tenant has finished, the next gap is drawn.
func (d *faultDriver) drainOutageClose() {
	d.r.arb.SetMaxDrains(d.baseDrains)
	if d.allDone() {
		return
	}
	d.r.eng.After(d.fi.NextDrainOutageGap(), "machine-drain-outage", d.drainOutageOpenFn)
}

// crashStrike fires one planned rack crash. The rack is drawn
// unconditionally — the plan's timeline is independent of machine state
// — and every running tenant of that rack aborts: its flows leave the
// arbiter, its nodes return to the pool, and it either re-enters the
// admission queue after an exponential backoff or (past the retry
// bound) ends as a truncated run.
func (d *faultDriver) crashStrike() {
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
	d.r.eng.After(d.fi.NextCrashGap(), "machine-crash", d.crashStrikeFn)
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
