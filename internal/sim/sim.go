// Package sim is the repository's discrete-event simulation engine: one
// event core (Engine, engine.go) with two programming models on top.
// Callbacks schedule directly on the engine — the step tier's
// continuation-passing apps and the machine layer drive it this way, the
// apps arming the timers they re-arm every cycle as reusable alarms
// (Alarm) that the engine dispatches in one (time, seq) order with its
// heap — and the process layer (Env, Proc) provides the semantics the
// paper's SimPy framework relies on: processes that wait for simulated
// time to pass, broadcast condition events, and asynchronous
// interruption of a blocked process (used to inject failures into a
// computing application and to abort an in-flight live migration when a
// shorter-lead prediction arrives).
//
// Each process runs on its own goroutine, but execution is strictly
// lock-step: exactly one goroutine — either the engine's driver or the
// single currently-running process — is active at any instant, handing
// control back and forth over unbuffered channels. Every process start,
// wake and interrupt delivery is one engine event whose callback hands
// the token to the process and waits for it back, so processes and
// callbacks share one heap and one tie-break: simultaneous events fire
// in schedule order. Simulation state therefore needs no locking, and
// runs are deterministic.
//
// Time is a float64 in seconds. There is no wall-clock component anywhere;
// a run is a pure function of its inputs.
//
// The engine recycles its hot-path allocations: heap entries come from
// the engine's free list, engines are pooled across runs, and process
// goroutines and their channels come from a process-global slot pool
// (see slot.go). See DESIGN.md ("Engine performance") for the safety
// arguments.
package sim

// Env is a process environment: the process layer over one Engine.
// Create one with NewEnv, spawn processes, then call Run.
type Env struct {
	eng     *Engine
	current *Proc
	// sched is the handshake channel processes use to hand control back
	// to the engine's driver after parking or terminating.
	sched chan struct{}
	// failure carries a panic value out of a process goroutine so the
	// wake callback can re-panic with it on the caller's stack.
	failure any
	failed  bool
	nprocs  int
}

// NewEnv returns an empty environment with the clock at zero. Its engine
// may reuse the buffers of a previously released one.
func NewEnv() *Env {
	return &Env{eng: NewEngine(), sched: make(chan struct{})}
}

// Release hands the environment's engine back for reuse. Call it only
// when the run is over: if processes are still live or a process
// panicked, Release is a no-op and the engine is simply dropped — a
// poisoned or half-run engine never re-enters circulation (and
// Engine.Release itself refuses while events are pending). Using an
// environment after releasing it is a bug.
func (e *Env) Release() {
	if e.nprocs != 0 || e.failed || e.current != nil {
		return
	}
	e.eng.Release()
}

// Now returns the current simulation time in seconds.
func (e *Env) Now() float64 { return e.eng.Now() }

// ProcCount returns the number of live (spawned, not yet finished)
// processes. Useful for leak assertions in tests.
func (e *Env) ProcCount() int { return e.nprocs }

// At runs fn at the given delay from now. fn executes while holding the
// scheduler token, so it may inspect and mutate simulation state and may
// spawn processes or trigger events, but must not block.
func (e *Env) At(delay float64, fn func()) {
	e.eng.After(delay, "", fn)
}

// Spawn creates a process executing fn and schedules it to start at the
// current simulation time (after already-scheduled events at this time).
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(0, name, fn)
}

// SpawnAt creates a process that starts after the given delay.
func (e *Env) SpawnAt(delay float64, name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, fn: fn}
	p.wakeFn = p.wake
	e.nprocs++
	e.eng.After(delay, name, p.wakeFn)
	return p
}

// RunAll processes events until none remain and returns the final
// simulation time. A panic inside any process is re-raised here.
func (e *Env) RunAll() float64 { return e.eng.RunAll() }

// SetWatchdog arms (or, with two zeros, disarms) the engine's watchdog
// (see Engine.SetWatchdog): RunAll panics with a *WatchdogError
// naming the stuck process. Release resets both limits, so a pooled
// engine never inherits a previous run's watchdog.
func (e *Env) SetWatchdog(maxEvents uint64, maxSimSeconds float64) {
	e.eng.SetWatchdog(maxEvents, maxSimSeconds)
}
