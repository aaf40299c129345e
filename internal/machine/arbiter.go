// Package machine simulates a shared machine: several applications,
// each a full platform cell on the step tier, contend for one
// parallel-file-system bandwidth ceiling, a shared drain-concurrency
// budget, and a finite node pool. The package supplies the two control
// planes the solo tiers lack — a bandwidth arbiter (this file) pricing
// concurrent PFS transfers against each other, and an admission plane
// (admission.go) deciding when queued jobs start — and a driver
// (machine.go) running the whole cohort on one sim.Engine.
package machine

import (
	"fmt"
	"math"

	"pckpt/internal/sim"
	"pckpt/internal/stepsim"
)

// flow is one in-flight transfer at the arbiter.
type flow struct {
	id       stepsim.FlowID
	app      int
	class    stepsim.WriteClass
	remainGB float64
	// soloRate is the flow's uncontended bandwidth (volume over solo
	// duration): the arbiter never allocates a flow more — contention
	// only slows a transfer down, never speeds it past its solo price.
	soloRate float64
	// rate is the current allocation, repriced on every writer-set change.
	rate  float64
	done  func()
	timer sim.Timer
	// queued marks a drain parked for a free drain slot; suspended marks
	// a flow frozen by its app's interrupt handling. Neither holds
	// bandwidth.
	queued    bool
	suspended bool
	// starved marks a flow active but allocated zero bandwidth since
	// starvedAt; escalated marks a flow the starvation watchdog has
	// promoted into the priority lane. escTimer is the pending watchdog.
	starved   bool
	starvedAt float64
	escalated bool
	escTimer  sim.Timer
	// completeFn and escalateFn are the arbiter's complete and escalate
	// bound to this record once, when it is first allocated; they
	// survive recycling, so rescheduling a timer allocates nothing.
	completeFn, escalateFn func()
}

// BandwidthArbiter is the machine's PFS bandwidth control plane. It
// implements stepsim.Arbiter with a fluid-flow model: between writer-set
// changes every active flow proceeds at a constant rate, and on every
// change (start, finish, suspend, resume, cancel) the arbiter advances
// each flow's remaining volume and re-divides the ceiling —
//
//   - vulnerable-node writes (stepsim.ClassVulnerable) form a priority
//     lane served first, in FIFO order, each capped at its solo rate, so
//     p-ckpt's phase-1 prioritization holds machine-wide;
//   - the remaining bandwidth is max-min fair-shared across all other
//     active flows, each again capped at its solo rate;
//   - drains additionally contend for MaxDrains shared slots: a drain
//     arriving with no free slot queues FIFO and holds no bandwidth.
//
// Completion times are engine timers rescheduled on each repricing, so
// the whole machine stays a deterministic single-goroutine simulation.
type BandwidthArbiter struct {
	eng      *sim.Engine
	ceiling  float64
	maxDrain int

	active   []*flow // allocation order: ascending flow id
	drainQ   []*flow // FIFO drains awaiting a slot
	byID     map[stepsim.FlowID]*flow
	nextID   stepsim.FlowID
	inDrain  int
	lastT    float64
	starving []bool    // app had an active-but-unallocated flow at lastT
	starveS  []float64 // integrated starvation seconds per app

	// Starvation watchdog (escBound > 0 arms it): flows starved longer
	// than escBound seconds escalate into the priority lane, so no
	// tenant starves forever even under brownout.
	escBound     float64
	numEscalated int
	escalations  []int     // per-app watchdog escalation count
	maxStretch   []float64 // per-app longest single zero-rate stretch

	// onAlloc, when non-nil, observes every repricing: the simulation
	// time, the total allocated bandwidth, and the instantaneous ceiling
	// (the conservation probe — total never exceeds the ceiling, even
	// mid-brownout).
	onAlloc func(t, totalGBs, ceilingGBs float64)

	// scratch is the water-filling worklist, reused across repricings,
	// and SetMaxDrains' eviction list; escScratch is the escalated lane's.
	scratch    []*flow
	escScratch []*flow
	// free holds retired flow records for reuse (see newFlow).
	free []*flow
}

// NewBandwidthArbiter creates the arbiter for a machine whose PFS
// sustains ceilingGBs aggregate bandwidth and maxDrains concurrent
// drains, shared by numApps applications on eng.
func NewBandwidthArbiter(eng *sim.Engine, ceilingGBs float64, maxDrains, numApps int) *BandwidthArbiter {
	if ceilingGBs <= 0 {
		panic(fmt.Sprintf("machine: non-positive bandwidth ceiling %g", ceilingGBs))
	}
	if maxDrains <= 0 {
		panic(fmt.Sprintf("machine: non-positive drain concurrency %d", maxDrains))
	}
	return &BandwidthArbiter{
		eng:         eng,
		ceiling:     ceilingGBs,
		maxDrain:    maxDrains,
		byID:        make(map[stepsim.FlowID]*flow),
		starving:    make([]bool, numApps),
		starveS:     make([]float64, numApps),
		escalations: make([]int, numApps),
		maxStretch:  make([]float64, numApps),
		lastT:       eng.Now(),
	}
}

// SetAllocObserver installs fn to observe every repricing's total
// allocation (t, totalGBs, ceilingGBs). Pass nil to remove.
func (b *BandwidthArbiter) SetAllocObserver(fn func(t, totalGBs, ceilingGBs float64)) { b.onAlloc = fn }

// Ceiling returns the instantaneous aggregate bandwidth ceiling.
func (b *BandwidthArbiter) Ceiling() float64 { return b.ceiling }

// SetCeiling changes the aggregate bandwidth ceiling mid-run — the PFS
// brownout/blackout hook. Zero is legal (a blackout: every flow prices
// to zero and waits); negative or NaN is not. Every transition reprices
// immediately, so in-flight transfers keep exact integer progress
// accounting across the change.
func (b *BandwidthArbiter) SetCeiling(gbs float64) {
	if gbs < 0 || math.IsNaN(gbs) {
		panic(fmt.Sprintf("machine: invalid bandwidth ceiling %g", gbs))
	}
	b.ceiling = gbs
	b.reprice()
}

// SetMaxDrains changes the drain-slot budget mid-run — the drain-slot
// outage hook. Zero is legal (no drain runs until slots return).
// Shrinking evicts the most recently admitted in-flight drains back to
// the FRONT of the slot queue in start order, so when slots return the
// interrupted drains resume FIFO ahead of drains that never started;
// growing promotes queued drains FIFO.
func (b *BandwidthArbiter) SetMaxDrains(n int) {
	if n < 0 {
		panic(fmt.Sprintf("machine: negative drain concurrency %d", n))
	}
	t := b.eng.Now()
	b.advance(t)
	b.maxDrain = n
	evicted := b.scratch[:0] // descending id (most recent first)
	for b.inDrain > n {
		var victim *flow
		vi := -1
		for i := len(b.active) - 1; i >= 0; i-- {
			if b.active[i].class == stepsim.ClassDrain {
				victim, vi = b.active[i], i
				break
			}
		}
		if victim == nil {
			break
		}
		b.park(victim, t)
		b.active = append(b.active[:vi], b.active[vi+1:]...)
		b.inDrain--
		victim.queued = true
		evicted = append(evicted, victim)
	}
	b.scratch = evicted
	if k := len(evicted); k > 0 {
		// Prepend in ascending-id (start) order ahead of never-started
		// drains, shifting the queue in place.
		q := len(b.drainQ)
		b.drainQ = append(b.drainQ, evicted...)
		copy(b.drainQ[k:], b.drainQ[:q])
		for i, f := range evicted {
			b.drainQ[k-1-i] = f
		}
	}
	for b.inDrain < n && len(b.drainQ) > 0 {
		next := b.drainQ[0]
		copy(b.drainQ, b.drainQ[1:])
		b.drainQ = b.drainQ[:len(b.drainQ)-1]
		b.activate(next)
	}
	b.reprice()
}

// MaxDrains returns the instantaneous drain-slot budget.
func (b *BandwidthArbiter) MaxDrains() int { return b.maxDrain }

// SetStarvationEscalation arms the starvation watchdog: any flow
// starved (active at zero rate) for longer than boundSeconds escalates
// into the priority lane until it next holds bandwidth. Zero disables
// the watchdog (the default); negative or NaN is rejected.
func (b *BandwidthArbiter) SetStarvationEscalation(boundSeconds float64) {
	if boundSeconds < 0 || math.IsNaN(boundSeconds) {
		panic(fmt.Sprintf("machine: invalid starvation escalation bound %g", boundSeconds))
	}
	b.escBound = boundSeconds
}

// Escalations returns how many times the starvation watchdog promoted
// one of app's flows into the priority lane.
func (b *BandwidthArbiter) Escalations(app int) int {
	if app < 0 || app >= len(b.escalations) {
		return 0
	}
	return b.escalations[app]
}

// EscalationCount returns the machine-wide watchdog escalation total.
func (b *BandwidthArbiter) EscalationCount() int {
	n := 0
	for _, e := range b.escalations {
		n += e
	}
	return n
}

// MaxStarvationStretchSeconds returns the longest single stretch during
// which app had a flow active at zero allocated bandwidth.
func (b *BandwidthArbiter) MaxStarvationStretchSeconds(app int) float64 {
	if app < 0 || app >= len(b.maxStretch) {
		return 0
	}
	return b.maxStretch[app]
}

// StarvationSeconds returns the total simulated time during which app
// had at least one runnable flow allocated zero bandwidth.
func (b *BandwidthArbiter) StarvationSeconds(app int) float64 {
	if app < 0 || app >= len(b.starveS) {
		return 0
	}
	return b.starveS[app]
}

// QueuedDrains returns the number of drains waiting for a slot.
func (b *BandwidthArbiter) QueuedDrains() int { return len(b.drainQ) }

// StartFlow implements stepsim.Arbiter. Done is always scheduled through
// the engine, never called inline.
func (b *BandwidthArbiter) StartFlow(app int, class stepsim.WriteClass, volumeGB, soloSeconds float64, done func()) stepsim.FlowID {
	if volumeGB <= 0 || soloSeconds <= 0 {
		panic(fmt.Sprintf("machine: flow with non-positive volume %g GB / solo %g s", volumeGB, soloSeconds))
	}
	b.nextID++
	f := b.newFlow()
	f.id = b.nextID
	f.app = app
	f.class = class
	f.remainGB = volumeGB
	f.soloRate = volumeGB / soloSeconds
	f.done = done
	b.byID[f.id] = f
	b.grow(app)
	if class == stepsim.ClassDrain && b.inDrain >= b.maxDrain {
		f.queued = true
		b.drainQ = append(b.drainQ, f)
		return f.id
	}
	b.activate(f)
	b.reprice()
	return f.id
}

// SuspendFlow implements stepsim.Arbiter: the flow's remaining volume is
// frozen and its bandwidth (and drain slot) returns to the machine.
func (b *BandwidthArbiter) SuspendFlow(id stepsim.FlowID) {
	f := b.byID[id]
	if f == nil || f.suspended {
		return
	}
	b.advance(b.eng.Now())
	f.suspended = true
	if f.queued {
		b.unqueue(f)
		return
	}
	b.deactivate(f)
	b.reprice()
}

// ResumeFlow implements stepsim.Arbiter: the flow re-enters contention
// with its remaining volume (a drain re-queues if no slot is free).
func (b *BandwidthArbiter) ResumeFlow(id stepsim.FlowID) {
	f := b.byID[id]
	if f == nil || !f.suspended {
		return
	}
	f.suspended = false
	if f.class == stepsim.ClassDrain && b.inDrain >= b.maxDrain {
		f.queued = true
		b.drainQ = append(b.drainQ, f)
		return
	}
	b.activate(f)
	b.reprice()
}

// CancelFlow implements stepsim.Arbiter: the flow is abandoned and done
// will not fire.
func (b *BandwidthArbiter) CancelFlow(id stepsim.FlowID) {
	f := b.byID[id]
	if f == nil {
		return
	}
	delete(b.byID, id)
	switch {
	case f.suspended:
		// Held no slot, no bandwidth, no timer.
	case f.queued:
		b.unqueue(f)
	default:
		b.deactivate(f)
		b.reprice()
	}
	b.freeFlow(f)
}

// complete fires when a flow's completion timer expires: the flow's
// remaining volume has fully transferred at its allocated rate. done
// runs last, after the record is recycled: it may start a flow that
// reuses the record.
func (b *BandwidthArbiter) complete(f *flow) {
	f.timer = sim.Timer{}
	delete(b.byID, f.id)
	b.deactivate(f)
	b.reprice()
	done := f.done
	b.freeFlow(f)
	done()
}

// newFlow takes a record off the free list, or allocates one and binds
// its callbacks.
func (b *BandwidthArbiter) newFlow() *flow {
	if n := len(b.free); n > 0 {
		f := b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
		return f
	}
	f := &flow{}
	f.completeFn = func() { b.complete(f) }
	f.escalateFn = func() { b.escalate(f) }
	return f
}

// freeFlow zeroes a retired record, keeping its bound callbacks, and
// returns it to the free list. The caller guarantees the record has left
// byID, the active set and the drain queue, and that both its timers are
// cancelled (or fired): no engine event or lookup can reach it again.
// Flow IDs are never reused, so a stale ID still finds nothing in byID.
func (b *BandwidthArbiter) freeFlow(f *flow) {
	*f = flow{completeFn: f.completeFn, escalateFn: f.escalateFn}
	b.free = append(b.free, f)
}

// activate admits f to the allocated set (taking a drain slot if it is a
// drain), keeping the set in ascending-id order so allocation — and its
// floating-point summation order — is canonical.
func (b *BandwidthArbiter) activate(f *flow) {
	f.queued = false
	if f.class == stepsim.ClassDrain {
		b.inDrain++
	}
	i := len(b.active)
	for i > 0 && b.active[i-1].id > f.id {
		i--
	}
	b.active = append(b.active, nil)
	copy(b.active[i+1:], b.active[i:])
	b.active[i] = f
}

// park tears down f's pricing state — completion timer, open starvation
// stretch, watchdog timer, escalation — without touching its slot or
// active-set membership.
func (b *BandwidthArbiter) park(f *flow, t float64) {
	b.eng.Cancel(f.timer)
	f.timer = sim.Timer{}
	f.rate = 0
	if f.starved {
		b.noteStretch(f, t)
	}
	b.eng.Cancel(f.escTimer)
	f.escTimer = sim.Timer{}
	if f.escalated {
		f.escalated = false
		b.numEscalated--
	}
}

// noteStretch closes f's current zero-rate stretch at time t, folding
// it into the per-app maximum.
func (b *BandwidthArbiter) noteStretch(f *flow, t float64) {
	f.starved = false
	if s := t - f.starvedAt; s > b.maxStretch[f.app] {
		b.maxStretch[f.app] = s
	}
}

// escalate fires when the starvation watchdog expires: if the flow is
// still active and still priced at zero, it joins the priority lane
// until it next holds bandwidth (deactivation clears it).
func (b *BandwidthArbiter) escalate(f *flow) {
	f.escTimer = sim.Timer{}
	if b.byID[f.id] != f || f.suspended || f.queued || f.escalated || f.rate > 0 {
		return
	}
	f.escalated = true
	b.numEscalated++
	b.escalations[f.app]++
	b.reprice()
}

// deactivate removes f from the allocated set, cancels its timer, and —
// if it held a drain slot — promotes the longest-waiting queued drain.
func (b *BandwidthArbiter) deactivate(f *flow) {
	b.park(f, b.eng.Now())
	for i, g := range b.active {
		if g == f {
			b.active = append(b.active[:i], b.active[i+1:]...)
			break
		}
	}
	if f.class == stepsim.ClassDrain {
		b.inDrain--
		if len(b.drainQ) > 0 {
			next := b.drainQ[0]
			copy(b.drainQ, b.drainQ[1:])
			b.drainQ = b.drainQ[:len(b.drainQ)-1]
			b.activate(next)
		}
	}
}

// unqueue removes a parked drain from the slot queue.
func (b *BandwidthArbiter) unqueue(f *flow) {
	f.queued = false
	for i, g := range b.drainQ {
		if g == f {
			b.drainQ = append(b.drainQ[:i], b.drainQ[i+1:]...)
			return
		}
	}
}

// grow widens the per-app accounting to cover app.
func (b *BandwidthArbiter) grow(app int) {
	for len(b.starveS) <= app {
		b.starveS = append(b.starveS, 0)
		b.starving = append(b.starving, false)
	}
	for len(b.escalations) <= app {
		b.escalations = append(b.escalations, 0)
		b.maxStretch = append(b.maxStretch, 0)
	}
}

// advance integrates the fluid model from the last repricing to t:
// every active flow's remaining volume shrinks by rate·dt, and starved
// apps accrue starvation time.
func (b *BandwidthArbiter) advance(t float64) {
	dt := t - b.lastT
	if dt > 0 {
		for _, f := range b.active {
			f.remainGB = math.Max(f.remainGB-f.rate*dt, 0)
		}
		for app, s := range b.starving {
			if s {
				b.starveS[app] += dt
			}
		}
	}
	b.lastT = t
}

// waterFill max-min fair-shares left across unsat: repeatedly grant
// flows whose solo cap fits under the equal share, then split what
// remains equally among the unsatisfied. Returns the bandwidth still
// unallocated. A zero (or exhausted) ceiling is safe: the loop never
// runs and every flow keeps its zero rate — no division by a zero
// share, no negative allocation.
func (b *BandwidthArbiter) waterFill(unsat []*flow, left float64) float64 {
	for len(unsat) > 0 && left > 0 {
		share := left / float64(len(unsat))
		n := 0
		for _, f := range unsat {
			if f.soloRate <= share {
				f.rate = f.soloRate
				left -= f.rate
			} else {
				unsat[n] = f
				n++
			}
		}
		if n == len(unsat) {
			for _, f := range unsat {
				f.rate = share
			}
			left = 0
			break
		}
		unsat = unsat[:n]
	}
	return left
}

// reprice advances the fluid model to now, re-divides the ceiling over
// the active flows (escalated lane, then priority lane, then capped
// max-min fair share), and reschedules every completion timer.
func (b *BandwidthArbiter) reprice() {
	t := b.eng.Now()
	b.advance(t)

	left := b.ceiling
	// Escalated lane: flows the starvation watchdog promoted are
	// water-filled first, so each holds a positive rate whenever any
	// ceiling remains at all.
	if b.numEscalated > 0 {
		b.escScratch = b.escScratch[:0]
		for _, f := range b.active {
			if f.escalated {
				f.rate = 0
				b.escScratch = append(b.escScratch, f)
			}
		}
		left = b.waterFill(b.escScratch, left)
	}
	// Priority lane: vulnerable-node writes, FIFO by flow id, each at
	// its solo rate while the ceiling lasts.
	b.scratch = b.scratch[:0]
	for _, f := range b.active {
		if f.escalated {
			continue
		}
		if f.class == stepsim.ClassVulnerable {
			f.rate = math.Min(f.soloRate, left)
			left -= f.rate
		} else {
			f.rate = 0
			b.scratch = append(b.scratch, f)
		}
	}
	// Water-filling max-min over everyone else.
	b.waterFill(b.scratch, left)

	total := 0.0
	for _, f := range b.active {
		total += f.rate
	}
	if b.onAlloc != nil {
		b.onAlloc(t, total, b.ceiling)
	}
	for i := range b.starving {
		b.starving[i] = false
	}
	for _, f := range b.active {
		if f.rate == 0 {
			b.starving[f.app] = true
			if !f.starved {
				f.starved = true
				f.starvedAt = t
				if b.escBound > 0 && !f.escalated {
					f.escTimer = b.eng.After(b.escBound, "starve-escalate", f.escalateFn)
				}
			}
		} else if f.starved {
			b.noteStretch(f, t)
			b.eng.Cancel(f.escTimer)
			f.escTimer = sim.Timer{}
		}
	}

	for _, f := range b.active {
		b.eng.Cancel(f.timer)
		f.timer = sim.Timer{}
		if f.rate > 0 {
			f.timer = b.eng.After(f.remainGB/f.rate, "arbiter", f.completeFn)
		}
	}
}
