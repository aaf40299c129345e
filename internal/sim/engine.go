package sim

// The engine core: a single-goroutine, callback/step-based event loop
// decomposed into the three primitives a shared-clock multi-instance
// loop needs —
//
//	HasPendingEvents / PeekNextEventTime / ProcessNextEvent
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

import (
	"fmt"
	"math"
	"sync"

	"pckpt/internal/queue"
)

// event is one heap entry: a callback to run at an absolute time, either
// fn() or call(arg). The call form carries its float argument in the
// entry, so a caller passing a value to a prebound method schedules
// without allocating a closure. Cancelled entries stay in the heap and
// are skipped when popped, making timer cancellation O(1).
type event struct {
	at        float64 // absolute fire time, mirrored from the heap key
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

// Engine is the simulation core: a virtual clock plus the pending-event
// heap. Create one with NewEngine, schedule closures, then drive it with
// ProcessNextEvent (or Run/RunAll).
type Engine struct {
	now    float64
	events queue.PQ[*event]
	// free is the event free list: every entry popped from the heap is
	// recycled, so a steady-state run reuses a small working set.
	free []*event
	// ncancelled counts cancelled entries still in the heap; when they
	// dominate, one compaction pass removes them (compaction preserves
	// (key, seq) pop order), so storms of retracted timeouts cannot grow
	// the heap without bound.
	ncancelled int
	// Watchdog limits (see SetWatchdog); zero disables each check.
	wdMaxEvents uint64
	wdMaxSim    float64
	wdEvents    uint64
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

// Release hands the engine back for reuse by a later NewEngine. Call it
// only when the run is over: with events still pending, Release is a
// no-op and the engine is simply dropped. Using an engine after
// releasing it is a bug.
func (e *Engine) Release() {
	if e.events.Len() != 0 {
		return
	}
	e.now = 0
	e.ncancelled = 0
	e.wdMaxEvents = 0
	e.wdMaxSim = 0
	e.wdEvents = 0
	e.dispatched = 0
	enginePool.Put(e)
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

// Dispatched returns how many live events have been processed — the
// step-rate numerator for benchmarks and throughput accounting.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// schedule pushes an event at an absolute time.
func (e *Engine) schedule(at float64, ev *event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (at=%g, now=%g)", at, e.now))
	}
	ev.at = at
	e.events.Push(at, ev)
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

// CallAt runs fn(arg) at absolute engine time at (clamped to now) and
// returns a Timer Cancel can retract. The argument travels in the event,
// so a prebound method value schedules without allocating: an app passes
// its locally-computed deadline this way instead of capturing it in a
// wrapper closure. An offset-started app schedules every deadline here —
// one uniform t0+local rounding per event — so deadlines that tie in the
// app's local clock still tie on the shared clock; re-deriving them from
// eng.Now() at different moments would split such ties by an ulp and
// reorder the run.
func (e *Engine) CallAt(at float64, name string, fn func(float64), arg float64) Timer {
	ev := e.newEvent()
	ev.call = fn
	ev.arg = arg
	ev.name = name
	e.schedule(math.Max(at, e.now), ev)
	return Timer{ev: ev}
}

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

// settle drops cancelled entries off the heap head so the Peek/Has
// primitives report the next LIVE event.
func (e *Engine) settle() {
	for e.events.Len() > 0 {
		_, ev, _ := e.events.Peek()
		if !ev.cancelled {
			return
		}
		e.events.Pop()
		e.ncancelled--
		e.freeEvent(ev)
	}
}

// HasPendingEvents reports whether any live event remains.
func (e *Engine) HasPendingEvents() bool {
	e.settle()
	return e.events.Len() > 0
}

// PeekNextEventTime returns the absolute time of the next live event.
// The boolean is false when no live event remains. A shared-clock driver
// interleaving several engines peeks each and steps the earliest.
func (e *Engine) PeekNextEventTime() (float64, bool) {
	e.settle()
	if e.events.Len() == 0 {
		return 0, false
	}
	at, _, _ := e.events.Peek()
	return at, true
}

// ProcessNextEvent advances the clock to the next live event and runs it.
// It reports false when no live event remained (the clock is unchanged).
// The result must not be ignored in driver loops — a discarded false
// spins forever (cmd/vet-ignored enforces this).
func (e *Engine) ProcessNextEvent() bool {
	e.settle()
	if e.events.Len() == 0 {
		return false
	}
	_, ev := e.events.Pop()
	e.now = ev.at
	e.watch(ev)
	// Copy the payload and recycle the entry up front: fn may schedule
	// new events that reuse it, and no reference to a dispatched event
	// survives (Cancel guards fired timers via the cancelled flag only
	// until this pop).
	fn, call, arg := ev.fn, ev.call, ev.arg
	e.freeEvent(ev)
	e.dispatched++
	if call != nil {
		call(arg)
	} else {
		fn()
	}
	return true
}

// Run processes events until none remain or the clock would pass until.
// When events remain beyond the horizon, the clock still advances to
// until — mirroring SimPy's run(until=...), whose horizon is itself an
// event — so Now() afterwards is the horizon, and work scheduled
// relative to it is anchored there. It returns the final simulation
// time.
func (e *Engine) Run(until float64) float64 {
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

// SetWatchdog arms (or, with two zeros, disarms) the watchdog:
// ProcessNextEvent panics with a *WatchdogError once more than maxEvents
// events have been dispatched since arming, or once the clock reaches an
// event past maxSimSeconds. Zero disables the respective limit; the
// event counter restarts at every call, and Release resets both limits.
func (e *Engine) SetWatchdog(maxEvents uint64, maxSimSeconds float64) {
	e.wdMaxEvents = maxEvents
	e.wdMaxSim = maxSimSeconds
	e.wdEvents = 0
}

// watch enforces the armed limits against the live entry about to run.
func (e *Engine) watch(ev *event) {
	if e.wdMaxEvents == 0 && e.wdMaxSim == 0 {
		return
	}
	e.wdEvents++
	name := ev.name
	if name == "" {
		name = "(callback)"
	}
	if e.wdMaxEvents > 0 && e.wdEvents > e.wdMaxEvents {
		panic(&WatchdogError{Reason: "event limit", Events: e.wdEvents, Now: e.now, Name: name})
	}
	if e.wdMaxSim > 0 && e.now > e.wdMaxSim {
		panic(&WatchdogError{Reason: "sim-time limit", Events: e.wdEvents, Now: e.now, Name: name})
	}
}
