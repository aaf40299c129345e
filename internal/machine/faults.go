package machine

import (
	"pckpt/internal/faultinject"
	"pckpt/internal/sim"
)

// faultDriver runs the machine-scope fault plan against a live
// simulation: three independent Poisson processes (PFS brownouts,
// drain-slot outages, rack crashes), each drawing gaps and windows from
// its own substream of the plan's RNG, scheduled as ordinary engine
// events so the whole degraded machine stays a deterministic
// single-goroutine simulation. Every process stops rescheduling once
// all tenants have finished, so the engine drains.
type faultDriver struct {
	eng *sim.Engine
	arb *BandwidthArbiter
	fi  *faultinject.MachineInjector
	cfg *Config
	res *Result

	tenants []tenantState
	// racks maps job → fault domain; one crash draw strikes every
	// running tenant of the drawn rack.
	racks    []int
	numRacks int

	// Hooks back into the driver's admission state (closures over
	// Simulate's queue): requeue re-enters a crashed job, freeNodes
	// credits the pool, tryAdmit re-runs the admission policy.
	requeue   func(j int, p PendingJob)
	freeNodes func(n int)
	tryAdmit  func()

	baseCeiling float64
	baseDrains  int

	// The five event handlers, bound once in start: scheduling a window
	// edge or a strike then allocates nothing.
	brownoutOpenFn, brownoutCloseFn, drainOutageOpenFn, drainOutageCloseFn, crashStrikeFn func()
}

// start wires the rack map and schedules the first gap of every enabled
// fault process. Must run before the engine does (time zero).
func (d *faultDriver) start() {
	d.racks = d.cfg.Racks
	if len(d.racks) == 0 {
		d.racks = make([]int, len(d.cfg.Jobs))
		for i := range d.racks {
			d.racks[i] = i
		}
	}
	for _, r := range d.racks {
		if r >= d.numRacks {
			d.numRacks = r + 1
		}
	}
	d.baseCeiling = d.arb.Ceiling()
	d.baseDrains = d.arb.MaxDrains()
	d.brownoutOpenFn, d.brownoutCloseFn = d.brownoutOpen, d.brownoutClose
	d.drainOutageOpenFn, d.drainOutageCloseFn = d.drainOutageOpen, d.drainOutageClose
	d.crashStrikeFn = d.crashStrike
	mc := d.fi.MachineConfig()
	if mc.BrownoutRatePerHour > 0 {
		d.eng.After(d.fi.NextBrownoutGap(), "machine-brownout", d.brownoutOpenFn)
	}
	if mc.DrainOutageRatePerHour > 0 {
		d.eng.After(d.fi.NextDrainOutageGap(), "machine-drain-outage", d.drainOutageOpenFn)
	}
	if mc.CrashRatePerHour > 0 {
		d.eng.After(d.fi.NextCrashGap(), "machine-crash", d.crashStrikeFn)
	}
}

// allDone reports whether every job has left the machine for good —
// completed, or truncated past its crash-retry bound.
func (d *faultDriver) allDone() bool {
	for i := range d.tenants {
		if !d.tenants[i].finished {
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
	d.res.Brownouts++
	d.res.BrownoutSeconds += dur
	d.arb.SetCeiling(d.baseCeiling * factor)
	d.eng.After(dur, "machine-brownout", d.brownoutCloseFn)
}

// brownoutClose ends the open brownout window: the ceiling returns to
// base and, unless every tenant has finished, the next gap is drawn.
func (d *faultDriver) brownoutClose() {
	d.arb.SetCeiling(d.baseCeiling)
	if d.allDone() {
		return
	}
	d.eng.After(d.fi.NextBrownoutGap(), "machine-brownout", d.brownoutOpenFn)
}

// drainOutageOpen starts one drain-slot outage: the machine-wide drain
// budget shrinks (to no less than zero) and the most recently admitted
// in-flight drains requeue FIFO at the head of the slot queue.
func (d *faultDriver) drainOutageOpen() {
	if d.allDone() {
		return
	}
	dur, slots := d.fi.DrainOutageWindow()
	d.res.DrainOutages++
	d.arb.SetMaxDrains(max(d.baseDrains-slots, 0))
	d.eng.After(dur, "machine-drain-outage", d.drainOutageCloseFn)
}

// drainOutageClose ends the open outage: the drain budget returns to
// base and, unless every tenant has finished, the next gap is drawn.
func (d *faultDriver) drainOutageClose() {
	d.arb.SetMaxDrains(d.baseDrains)
	if d.allDone() {
		return
	}
	d.eng.After(d.fi.NextDrainOutageGap(), "machine-drain-outage", d.drainOutageOpenFn)
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
	rack := d.fi.CrashRack(d.numRacks)
	struck := false
	for j := range d.tenants {
		if d.racks[j] == rack && d.tenants[j].running {
			d.crashTenant(j)
			struck = true
		}
	}
	if struck {
		d.tryAdmit()
	}
	d.eng.After(d.fi.NextCrashGap(), "machine-crash", d.crashStrikeFn)
}

// crashTenant aborts one running job and routes it through the crash
// lifecycle: crash → requeue (bounded, exponential backoff) or
// crash → give-up with the truncated-run marker.
func (d *faultDriver) crashTenant(j int) {
	ten := &d.tenants[j]
	now := d.eng.Now()
	nodes := d.cfg.Jobs[j].need()
	partial := ten.handle.Abort()
	ten.handle = nil
	ten.running = false
	ten.crashes++
	d.freeNodes(nodes)
	jr := &d.res.Jobs[j]
	jr.Crashes++
	d.res.TenantCrashes++
	d.res.Decisions = append(d.res.Decisions, RoutingDecision{Kind: DecisionCrash, Job: j, AtSeconds: now, Nodes: nodes})
	if ten.crashes > d.fi.MachineConfig().CrashMaxRetries {
		// Retry budget exhausted: the job leaves the machine as the
		// truncated partial run — the PR 5/PR 9 degradation marker —
		// rather than panicking or spinning forever.
		jr.Run = partial
		jr.EndSeconds = now
		ten.finished = true
		d.res.Decisions = append(d.res.Decisions, RoutingDecision{Kind: DecisionGiveUp, Job: j, AtSeconds: now, Nodes: nodes})
		return
	}
	d.res.CrashRequeues++
	backoff := d.fi.CrashBackoffSeconds(ten.crashes)
	d.eng.After(backoff, "machine-requeue", func() {
		t := d.eng.Now()
		d.res.Decisions = append(d.res.Decisions, RoutingDecision{Kind: DecisionRequeue, Job: j, AtSeconds: t, Nodes: nodes})
		d.requeue(j, PendingJob{Job: j, Nodes: nodes, ArrivalSeconds: t})
	})
}
