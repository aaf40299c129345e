package sim

// The engine core: a single-goroutine, callback/step-based event loop
// decomposed into the two primitives a shared-clock multi-instance loop
// needs —
//
//	PeekNextEventTime / ProcessNextEvent
//
// — over a stable (time, seq) heap. An event is a callback, dispatching
// one is a function call, and every simulation in the repo runs on it:
// the step tier's continuation-passing apps and the machine layer
// schedule callbacks directly, and the process layer (Env, Proc) turns
// every process start, wake and interrupt delivery into one engine
// event. Both programming models therefore share one tie-break
// (simultaneous events fire in schedule order), one lazy cancellation
// with threshold compaction, one Run(until) horizon rule, one watchdog
// and one pool.
//
// The decomposition is deliberately the shape inference-sim's
// ClusterSimulator uses: an external driver can interleave several
// engines on one shared clock by repeatedly asking each for its next
// event time and stepping the earliest.
//
// Beside the heap the engine keeps its bound alarms (Alarm, Bind):
// reusable timers whose callbacks are bound once, for the few timers
// that fire on a large share of dispatches — a step app's wake, a
// machine's next flow completion and fault edges. Every other timer
// waits on the heap, since every dispatch scans every bound alarm.
// Arming one takes the sequence number an event scheduled then would
// take, and ProcessNextEvent dispatches the armed alarms and the heap in
// one (time, seq) order, so an alarm fires exactly where the same event
// on the heap would.

import (
	"fmt"
	"sync"

	"pckpt/internal/queue"
)

// event is one heap entry: a callback to run at an absolute time, either
// fn() or call(arg). The call form carries its float argument in the
// entry, so a caller passing a value to a prebound method schedules
// without allocating a closure. Cancelled entries stay in the heap and
// are skipped when popped, making timer cancellation O(1).
type event struct {
	fn        func()
	call      func(float64)
	arg       float64
	cancelled bool
	// name labels the event's owner for watchdog diagnostics.
	name string
}

// Timer is a cancellable scheduled event handle. A parked process's
// pending wake is one.
type Timer struct{ ev *event }

// Alarm is a reusable, cancellable timer whose callback is bound once,
// by Engine.Bind. Arming it stores only scalars: no heap entry, no
// allocation. The engine dispatches armed alarms in (time, seq) order
// together with its heap, by scanning every alarm bound to it, and counts
// each dispatch for Dispatched and the watchdog like a popped event.
// Embed an Alarm by value in the state it serves: the engine keeps its
// address until Unbind or Release.
type Alarm struct {
	eng   *Engine
	fn    func(float64)
	name  string
	at    float64
	arg   float64
	seq   uint64
	armed bool
}

// Engine is the simulation core: a virtual clock, the pending-event heap
// and the bound alarms. Create one with NewEngine, schedule callbacks,
// then drive it with ProcessNextEvent (or Run/RunAll).
type Engine struct {
	now    float64
	events queue.PQ[*event]
	// alarms are the bound alarms, armed or not, in no particular order:
	// no two armed alarms share a sequence number, so the scan's order
	// decides nothing.
	alarms []*Alarm
	// free is the event free list: every entry popped from the heap is
	// recycled, so a steady-state run reuses a small working set.
	free []*event
	// ncancelled counts cancelled entries still in the heap; when they
	// dominate, one compaction pass removes them (compaction preserves
	// (key, seq) pop order), so storms of retracted timeouts cannot grow
	// the heap without bound.
	ncancelled int
	// Watchdog limits (see SetWatchdog); zero disables each check.
	// wdBase is dispatched at arming, so dispatched−wdBase counts the
	// events since.
	wdMaxEvents uint64
	wdMaxSim    float64
	wdBase      uint64
	// dispatched counts live events processed since construction.
	dispatched uint64
}

// WatchdogError is the panic value ProcessNextEvent raises when an armed
// watchdog limit trips: a livelocked run (two processes handing an event
// back and forth at the same timestamp, a Wait(0) loop, a zero-delay
// self-rescheduling callback) would otherwise spin the dispatch loop
// forever with the simulated clock frozen. The error names the event
// that tripped the limit — in a livelock that is the stuck process or
// callback — which is the first thing needed to debug it. The panic
// propagates out of Run like a process panic, so a harness with a
// per-worker recover reports the stuck run and moves on.
type WatchdogError struct {
	// Reason says which limit tripped ("event limit" or "sim-time limit").
	Reason string
	// Events is how many events had been dispatched when the limit tripped.
	Events uint64
	// Now is the simulated time at the trip.
	Now float64
	// Name labels the event that tripped the limit: a process's events
	// carry its spawn name, an unnamed callback reports "(callback)".
	Name string
}

func (w *WatchdogError) Error() string {
	return fmt.Sprintf("sim: watchdog %s exceeded after %d events at t=%gs (next event: %s)",
		w.Reason, w.Events, w.Now, w.Name)
}

// enginePool recycles released engines — principally the event-heap
// backing array and the free list — across runs of a sweep.
var enginePool = sync.Pool{New: func() any { return new(Engine) }}

// NewEngine returns an empty engine with the clock at zero. It may reuse
// the buffers of a previously Released engine.
func NewEngine() *Engine {
	return enginePool.Get().(*Engine)
}

// Release hands the engine back for reuse by a later NewEngine and
// unbinds its alarms. Call it only when the run is over: with events
// still pending or an alarm armed, Release is a no-op and the engine is
// simply dropped. Using an engine, or an alarm bound to it, after
// releasing it is a bug.
func (e *Engine) Release() {
	if e.Reset() {
		enginePool.Put(e)
	}
}

// Reset readies a drained engine for another run in place, as Release
// does before pooling it: the clock back at zero, every alarm unbound,
// the watchdog disarmed and the dispatch count zeroed, the heap and the
// event free list kept. It reports false, changing nothing, while an
// event is pending or an alarm armed. A machine run record keeps one
// engine across the runs of a sweep this way.
func (e *Engine) Reset() bool {
	if _, _, pending := e.next(); pending {
		return false
	}
	clear(e.alarms)
	e.alarms = e.alarms[:0]
	e.now = 0
	e.wdMaxEvents = 0
	e.wdMaxSim = 0
	e.wdBase = 0
	e.dispatched = 0
	return true
}

// newEvent takes an entry off the free list, or allocates one.
func (e *Engine) newEvent() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// freeEvent zeroes an entry and returns it to the free list. The caller
// must guarantee no reference survives; dispatch copies the payload
// before freeing, and a cancelled Timer's handle is dropped by Cancel.
func (e *Engine) freeEvent(ev *event) {
	*ev = event{}
	e.free = append(e.free, ev)
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Dispatched returns how many live events, alarms included, have been
// processed, and the dispatches credited (Credit); cancelled events and
// disarmed alarms never count. No result depends on it: a step cell's
// failure-free prefix reads it to credit what a restart skips,
// TestRunAheadEquivalence and its siblings pin it per run, and
// FuzzEngineAlarms holds alarms, and credits, to the count the same
// events make on the heap.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// schedule pushes an event at an absolute time.
func (e *Engine) schedule(at float64, ev *event) {
	e.checkTime(at)
	e.events.Push(at, ev)
}

// checkTime refuses an event time before the clock. The test is written
// so that NaN fails it too: a NaN key compares false against every other
// key and would silently break the heap's (time, seq) order.
func (e *Engine) checkTime(at float64) {
	if !(at >= e.now) {
		panic(fmt.Sprintf("sim: scheduling into the past (at=%g, now=%g)", at, e.now))
	}
}

// After runs fn at the given delay from now and returns a Timer that
// Cancel can retract; callers that never cancel ignore it. name labels
// the event for watchdog trips. fn executes on the driving goroutine and
// may schedule further events, but must not block. The returned Timer is
// also the engine's interruptible wait: a consumer parks by scheduling
// its continuation on a timer, and an interrupt cancels the timer and
// schedules the interrupt path at the current time instead.
func (e *Engine) After(delay float64, name string, fn func()) Timer {
	ev := e.newEvent()
	ev.fn = fn
	ev.name = name
	e.schedule(e.now+delay, ev)
	return Timer{ev: ev}
}

// CallAt runs fn(arg) at absolute time at and returns a Timer Cancel can
// retract. The argument travels in the event, so a prebound method value
// schedules without allocating: an app passes its locally computed
// deadline this way instead of capturing it in a wrapper closure.
func (e *Engine) CallAt(at float64, name string, fn func(float64), arg float64) Timer {
	ev := e.newEvent()
	ev.call, ev.arg, ev.name = fn, arg, name
	e.schedule(at, ev)
	return Timer{ev: ev}
}

// Bind registers a with the engine, unarmed: once armed, it runs fn(arg)
// under name (the label of its watchdog trips). Bind an alarm once; it
// stays bound until Unbind or Release, and a dispatch scans every bound
// alarm.
func (e *Engine) Bind(a *Alarm, name string, fn func(float64)) {
	*a = Alarm{eng: e, fn: fn, name: name}
	e.alarms = append(e.alarms, a)
}

// Unbind takes the alarm out of its engine's scan: a timer that will not
// be armed again, such as an ended app's wake, stops costing every later
// dispatch. Bind adds it back. Unbinding an armed alarm panics — its
// event would be lost — and unbinding an unbound one is a no-op.
func (a *Alarm) Unbind() {
	if a.armed {
		panic(fmt.Sprintf("sim: Unbind of the armed alarm %q", a.name))
	}
	e := a.eng
	if e == nil {
		return
	}
	a.eng = nil
	for i, b := range e.alarms {
		if b == a {
			last := len(e.alarms) - 1
			e.alarms[i] = e.alarms[last]
			e.alarms[last] = nil
			e.alarms = e.alarms[:last]
			return
		}
	}
}

// Arm sets the alarm to run its callback with arg at absolute time at,
// replacing any earlier setting. It takes the sequence number an event
// scheduled now would take, so it fires exactly where CallAt(at, …)
// would have queued the same callback. The past-time check is the
// heap's.
func (a *Alarm) Arm(at, arg float64) {
	a.eng.checkTime(at)
	a.at, a.arg, a.seq, a.armed = at, arg, a.eng.events.Reserve(), true
}

// Disarm clears the alarm; disarming an unarmed alarm is a no-op. As
// with a cancelled event, its sequence number is never reused.
func (a *Alarm) Disarm() { a.armed = false }

// Cancel lazily retracts a scheduled timer, compacting the heap when
// dead entries reach both an absolute floor and half the heap. Cancelling
// an already-cancelled or fired timer is a bug the zero handle guards:
// Cancel on the zero Timer is a no-op.
func (e *Engine) Cancel(t Timer) {
	if t.ev == nil || t.ev.cancelled {
		return
	}
	t.ev.cancelled = true
	e.ncancelled++
	if e.ncancelled >= 64 && e.ncancelled*2 >= e.events.Len() {
		e.compact()
	}
}

// compact removes every cancelled entry in one pass. Pop order is a pure
// function of each entry's (key, seq) pair, which compaction preserves.
func (e *Engine) compact() {
	e.events.RemoveFunc(func(ev *event) bool {
		if ev.cancelled {
			e.freeEvent(ev)
			return true
		}
		return false
	})
	e.ncancelled = 0
}

// next finds the next live event in (time, seq) order: the armed alarm
// that fires first, when it precedes the heap's live head, or else the
// head itself (alarm nil). ok is false when nothing is pending.
// Cancelled entries at the head are dropped first.
func (e *Engine) next() (alarm *Alarm, at float64, ok bool) {
	for e.ncancelled > 0 {
		_, ev, _ := e.events.Peek()
		if !ev.cancelled {
			break
		}
		e.events.Pop()
		e.ncancelled--
		e.freeEvent(ev)
	}
	at, seq, ok := e.events.Head()
	for _, a := range e.alarms {
		if a.armed && (!ok || a.at < at || a.at == at && a.seq < seq) {
			alarm, at, seq, ok = a, a.at, a.seq, true
		}
	}
	return alarm, at, ok
}

// PeekNextEventTime returns the absolute time of the next live event.
// The boolean is false when no live event remains. A shared-clock driver
// interleaving several engines peeks each and steps the earliest.
func (e *Engine) PeekNextEventTime() (float64, bool) {
	_, at, ok := e.next()
	return at, ok
}

// ProcessNextEvent advances the clock to the next live event, alarm or
// heap entry, and runs it. It reports false when no live event remained
// (the clock is unchanged). The result must not be ignored in driver
// loops — a discarded false spins forever (cmd/vet-ignored enforces
// this).
func (e *Engine) ProcessNextEvent() bool {
	a, at, ok := e.next()
	if !ok {
		return false
	}
	if a != nil {
		// Disarm first: the callback may arm the alarm again.
		a.armed = false
		e.dispatch(at, a.name)
		a.fn(a.arg)
		return true
	}
	_, ev := e.events.Pop()
	e.dispatch(at, ev.name)
	// Copy the payload and recycle the entry up front: fn may schedule
	// new events that reuse it, and no reference to a dispatched event
	// survives (Cancel guards fired timers via the cancelled flag only
	// until this pop).
	fn, call, arg := ev.fn, ev.call, ev.arg
	e.freeEvent(ev)
	if call != nil {
		call(arg)
	} else {
		fn()
	}
	return true
}

// Credit counts n dispatches the caller skips, for Dispatched and for the
// watchdog, and moves the clock to at, the time of the last of them. It
// is for a caller that has proven what those dispatches would compute and
// restores that state itself: a step run restarting from its cell's
// failure-free prefix. By the next dispatch, nothing pending may fall
// before at. Credit refuses, changing nothing, when one of the n
// dispatches would have tripped an armed watchdog limit, so a caller that
// then makes them trips at the same event under the same name. It panics
// on a NaN time or one before the clock.
func (e *Engine) Credit(n uint64, at float64) bool {
	if !(at >= e.now) {
		panic(fmt.Sprintf("sim: Credit to a time before the clock (at=%g, now=%g)", at, e.now))
	}
	if n > 0 && (e.wdMaxEvents > 0 && e.dispatched+n-e.wdBase > e.wdMaxEvents || e.wdMaxSim > 0 && at > e.wdMaxSim) {
		return false
	}
	e.now = at
	e.dispatched += n
	return true
}

// dispatch moves the clock to a live event's time and counts the event,
// labelled name, for Dispatched and against the watchdog.
func (e *Engine) dispatch(at float64, name string) {
	e.now = at
	if e.wdMaxEvents > 0 && e.dispatched-e.wdBase >= e.wdMaxEvents || e.wdMaxSim > 0 && at > e.wdMaxSim {
		e.trip(name)
	}
	e.dispatched++
}

// Run processes events until none remain or the clock would pass until.
// When events remain beyond the horizon, the clock still advances to
// until — mirroring SimPy's run(until=...), whose horizon is itself an
// event — so Now() afterwards is the horizon, and work scheduled
// relative to it is anchored there. It returns the final simulation
// time. until must not precede the clock: Run panics on an earlier or
// NaN horizon rather than turning the clock back. Every tier drains its
// engine with RunAll; TestRunHorizon and TestRunAheadHorizon pin the
// horizon rule a driver stepping several engines on one clock would rely
// on.
func (e *Engine) Run(until float64) float64 {
	if !(until >= e.now) {
		panic(fmt.Sprintf("sim: Run(%g) before the clock (now=%g)", until, e.now))
	}
	for {
		at, ok := e.PeekNextEventTime()
		if !ok {
			return e.now
		}
		if at > until {
			e.now = until
			return e.now
		}
		if !e.ProcessNextEvent() {
			return e.now
		}
	}
}

// RunAll processes events until none remain and returns the final time.
func (e *Engine) RunAll() float64 {
	for e.ProcessNextEvent() {
	}
	return e.now
}

// RunEventBudget is the watchdog's event ceiling for one application
// run, on every tier: vastly above what any real configuration
// dispatches, low enough that a livelocked run dies in seconds instead
// of hanging its sweep worker forever. A shared machine arms it once per
// tenant.
const RunEventBudget = 100_000_000

// SetWatchdog arms (or, with two zeros, disarms) the watchdog:
// ProcessNextEvent panics with a *WatchdogError once more than maxEvents
// events have been dispatched since arming, or once the clock reaches an
// event past maxSimSeconds. Zero disables the respective limit; the
// event counter restarts at every call, and Release resets both limits.
func (e *Engine) SetWatchdog(maxEvents uint64, maxSimSeconds float64) {
	e.wdMaxEvents = maxEvents
	e.wdMaxSim = maxSimSeconds
	e.wdBase = e.dispatched
}

// trip raises the WatchdogError of the armed limit the event about to
// run, labelled name, crosses: the event limit first, then the sim-time
// limit.
func (e *Engine) trip(name string) {
	if name == "" {
		name = "(callback)"
	}
	w := &WatchdogError{Reason: "event limit", Events: e.dispatched - e.wdBase + 1, Now: e.now, Name: name}
	if !(e.wdMaxEvents > 0 && w.Events > e.wdMaxEvents) {
		w.Reason = "sim-time limit"
	}
	panic(w)
}
