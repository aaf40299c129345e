// Package stepsim is the step tier: a scheduler that executes the five
// C/R models (B, M1, M2, P1, P2) of internal/appmodel in
// continuation-passing style as callbacks on sim.Engine, plus the
// Arbiter contract a multi-tenant machine implements to share the PFS
// between apps. There are no goroutines and no channels: every wait of
// the process-based reference scheduler (internal/crmodel) appears here
// as a wait with an explicit continuation, scheduled at the same logical
// point between the same appmodel transitions. Because both run on the
// same engine core — one heap, one (time, seq) tie-break — a step run
// observes the identical event order, which is what lets the step tier
// cross-validate bit-identically against crmodel (see stepsim_test.go).
//
// Prepare readies a configuration once for all its runs (a Cell); a
// Cell's Run runs one app on a dedicated engine and its Start starts one
// on a caller-driven, possibly shared engine (internal/machine
// interleaves several apps on one clock this way). Simulate prepares and
// runs in one call. Runs are recycled records: once the pools are warm a
// run allocates nothing.
package stepsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pckpt/internal/appmodel"
	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/sim"
	"pckpt/internal/stats"
	"pckpt/internal/trace"
)

// Config parameterises one step-tier simulation: the model under test,
// the shared platform configuration, and the trace observer. It is
// crmodel.Config's shape less the metrics registry, which each run names
// for itself (Cell.Run's reg, AppOptions.Metrics), and covers the full
// catalogue — the p-ckpt episode machinery (P1/P2) runs here as a
// continuation chain, bit-identical to the app tier's process form.
type Config struct {
	// Model is the C/R policy to simulate. Must satisfy Supports.
	Model policy.ID
	// Config is the tier-independent platform; its fields are promoted.
	platform.Config
	// Trace, when non-nil, receives the run's timeline events.
	Trace trace.Recorder
}

// Supports reports whether the step tier implements the catalogue
// entry: the full catalogue (B, M1, M2, P1, P2).
func Supports(id policy.ID) bool { return id.Valid() }

// withDefaults returns a copy with zero platform fields defaulted.
func (c Config) withDefaults() Config {
	c.Config = c.Config.WithDefaults()
	return c
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	if !c.Model.Valid() {
		return fmt.Errorf("stepsim: invalid model %d", uint8(c.Model))
	}
	return c.Config.Validate()
}

// Cell is one step-tier configuration prepared for its runs: validated
// and defaulted once, with everything its runs share derived once — the
// model's setup (appmodel.Setup: the platform quantities, the model's
// strategy and σ, the OCI estimator's prior, the spare limit) and the
// stochastic-input plan. A run derives nothing. A Cell is read-only once
// its prefix is recorded, so concurrent runs share it: the second
// unmetered run of a cell without a trace or a fault plan records the
// cell's failure-free prefix, which every later such run restarts from
// (see prefix.go).
type Cell struct {
	setup appmodel.Setup
	plan  platform.Plan
	// quiet reports that the cell has no trace and no fault plan, so its
	// unmetered runs may restart from the prefix. quietRuns counts those
	// runs; the second records the prefix, under recorded.
	quiet     bool
	quietRuns atomic.Uint32
	recorded  sync.Once
	prefix    *prefix
}

// Prepare validates cfg and derives everything its runs share; it
// returns the validation error a run of cfg would panic with. cfg.Trace
// records every run of the cell.
func Prepare(cfg Config) (*Cell, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plan, err := cfg.Plan()
	if err != nil {
		return nil, err
	}
	return &Cell{
		setup: appmodel.NewSetup(cfg.Model, cfg.Config, cfg.Trace),
		plan:  plan,
		quiet: cfg.Trace == nil && cfg.Faults == (faultinject.Config{}),
	}, nil
}

// Simulate executes one unmetered run and returns its accounting:
// Prepare, then Run. Deterministic in (cfg, seed), and bit-identical to
// crmodel.Simulate for the supported models on the same configuration
// and seed.
func Simulate(cfg Config, seed uint64) stats.RunResult {
	c, err := Prepare(cfg)
	if err != nil {
		panic(err)
	}
	return c.Run(seed, nil)
}

// Run executes one run of the cell on a dedicated engine, metered into
// reg (nil runs unmetered), and returns its accounting. An unmetered run
// of a cell without a trace or a fault plan restarts from the cell's
// failure-free prefix where its failure stream allows, with the result
// and dispatch count of a run made in full. The run's record comes from
// a pool and goes back once the engine has drained; a run that panics
// drops it.
func (c *Cell) Run(seed uint64, reg *metrics.Registry) stats.RunResult {
	pre := c.prefixFor(reg)
	a := recordPool.Get().(*appSim)
	res, _, _ := c.runOn(a, seed, reg, pre, sim.RunEventBudget)
	recordPool.Put(a)
	return res
}

// runOn runs one seed of c on record a and a dedicated engine whose event
// watchdog is armed at budget, restarting from pre when it is non-nil,
// and clears the record. It returns the run's accounting, the engine's
// Dispatched count and the dispatches the run credited from pre; a
// panicking run leaves the record as it was.
func (c *Cell) runOn(a *appSim, seed uint64, reg *metrics.Registry, pre *prefix, budget uint64) (res stats.RunResult, dispatched, credited uint64) {
	eng := sim.NewEngine()
	eng.SetWatchdog(budget, 0)
	c.startOn(a, eng, seed, AppOptions{Metrics: reg})
	a.pre = pre
	eng.RunAll()
	dispatched, credited = eng.Dispatched(), a.credited
	eng.Release()
	res = a.Res
	a.clear()
	return res, dispatched, credited
}

// AppOptions configures an application started on a shared engine. The
// zero value reproduces a solo unmetered run exactly.
type AppOptions struct {
	// Arbiter, when non-nil, routes the app's PFS transfers through a
	// shared-machine bandwidth arbiter instead of pricing each at its
	// uncontended solo duration.
	Arbiter Arbiter
	// AppIndex identifies the app at the arbiter and in diagnostics.
	AppIndex int
	// OnDone, when non-nil, runs the moment the app completes (normally
	// or truncated), receiving the final result — the machine layer's
	// job-departure hook. It fires on the simulation goroutine.
	OnDone func(stats.RunResult)
	// Metrics, when non-nil, receives the run's simulation-time metrics
	// under the "sim.<model>." prefix — the app tier's series, recorded
	// through the shared appmodel.RunMetrics. Nil costs nothing.
	Metrics *metrics.Registry
}

// AppHandle is a started application on a (possibly shared) engine. It
// lives in the app's run record and dies with Release.
type AppHandle struct{ a *appSim }

// Done reports whether the application has finished. The machine learns
// it from StartOptions.OnDone; TestAppAbortTruncatesMidFlight polls it.
func (h *AppHandle) Done() bool { return h.a.appDone }

// Result returns the run's accounting; meaningful once Done and until
// Release. The machine receives it through StartOptions.OnDone;
// TestRunAheadSharedEngine and TestAppAbortTruncatesMidFlight read it
// from the handle of an app they started on a shared engine.
func (h *AppHandle) Result() stats.RunResult { return h.a.Res }

// Abort kills a running application mid-flight — the machine layer's
// tenant-crash hook. The pending wake is cancelled and its alarm leaves
// the engine's scan, every arbitered flow (blocking and drain alike) is
// withdrawn from the machine, and the run is marked truncated at the
// current time; the partial accounting is returned. OnDone does NOT
// fire — the caller owns the crash bookkeeping (requeue or give up).
// Aborting a finished app is a no-op returning the final result. Must
// run on the simulation goroutine, between engine events.
func (h *AppHandle) Abort() stats.RunResult {
	a := h.a
	if a.appDone {
		return a.Res
	}
	a.syncClock()
	a.wakeAlarm.Disarm()
	a.wakeAlarm.Unbind()
	a.blockedCont = nil
	a.interruptPending = false
	a.blockFlows = a.cancelFlows(a.blockFlows)
	a.drainFlows = a.cancelFlows(a.drainFlows)
	a.Killed(a.now())
	a.appDone = true
	return a.Res
}

// Release returns the application's run record, node table included, to
// the pool Run draws from. Call it only once the engine has drained: an
// aborted app's pending callbacks still touch the record until then.
// The handle is dead afterwards (read Result first); a second Release
// before the record is reused is a no-op.
func (h *AppHandle) Release() { h.a.release() }

// Start schedules one run of the cell on eng, starting at the engine's
// current time. The caller drives the engine; several apps on one engine
// share its clock (the multi-tenant machine of internal/machine) while
// each keeps its own local time base, failure substreams, and accounting
// — an app admitted at t on a shared engine with no arbiter computes
// bit-identically to a solo run. The app's record comes from a pool;
// Release returns it.
func (c *Cell) Start(eng *sim.Engine, seed uint64, opts AppOptions) *AppHandle {
	return &c.start(eng, seed, opts).handle
}

// start takes a record from the pool and starts one run of c on it.
func (c *Cell) start(eng *sim.Engine, seed uint64, opts AppOptions) *appSim {
	a := recordPool.Get().(*appSim)
	c.startOn(a, eng, seed, opts)
	return a
}

// startOn resets record a for one run of c and schedules the run's first
// events. Start order mirrors crmodel's spawn order: the app's first
// compute cycle schedules its wake before the injector draws the stream.
func (c *Cell) startOn(a *appSim, eng *sim.Engine, seed uint64, opts AppOptions) {
	a.reset(c, eng, seed, opts)
	a.sched(0, "app", a.fn.start)
	a.sched(0, "injector", a.fn.injectStart)
}

// now returns the app-local simulation time: seconds since the app
// started. On a dedicated engine (Simulate) it equals the engine clock.
func (a *appSim) now() float64 { return a.localNow }

// clockTo advances the local clock (never backwards: an arbitered flow
// may already have pushed it past an older timer's deadline).
func (a *appSim) clockTo(local float64) {
	if local > a.localNow {
		a.localNow = local
	}
}

// syncClock advances the local clock to the engine clock — the entry
// point for events whose time the machine owns (arbitered flow
// completions), which have no locally-computed deadline.
func (a *appSim) syncClock() { a.clockTo(a.eng.Now() - a.t0) }

// sched runs fn(deadline) after delay seconds of app-local time, on the
// event heap. The deadline is computed in local arithmetic (see
// deadline), and fn starts by advancing the local clock to it with
// clockTo, so local arithmetic never round-trips through the absolute
// clock (which would lose last-ulp bits and let locally tied deadlines
// split). The deadline travels in the event, so a prebound fn schedules
// without allocating.
func (a *appSim) sched(delay float64, name string, fn func(local float64)) {
	at, local := a.deadline(delay)
	a.eng.CallAt(at, name, fn, local)
}

// deadline converts a delay of app-local time into an event's engine
// time and local deadline. The local deadline is now()+delay, the exact
// float ops a solo run performs; the engine time is its t0 conversion,
// clamped to the clock. An offset-started app converts every deadline
// here — one uniform t0+local rounding per event — so deadlines that tie
// in the app's local clock still tie on the shared clock; re-deriving
// them from eng.Now() at different moments would split such ties by an
// ulp and reorder the run. The app's alarms are armed at the same pair.
func (a *appSim) deadline(delay float64) (at, local float64) {
	now := a.eng.Now()
	if delay == 0 {
		// An immediate event joins the current timestamp batch; the t0
		// round-trip could land an ulp past it. The local clock is already
		// at the deadline, so the callback's clockTo is a no-op.
		return now, a.now()
	}
	local = a.now() + delay
	return max(a.t0+local, now), local
}

// wait parks the application for d seconds of simulated time: cont runs
// at expiry with interrupted=false, or at the interrupt time with
// interrupted=true if the injector cuts the wait short (in which case
// less than d elapsed) — the CPS equivalent of sim.Proc.Wait. The wake
// is the app's alarm, armed where sched would queue it.
func (a *appSim) wait(d float64, cont func(interrupted bool)) {
	if !(d >= 0) {
		panic(fmt.Sprintf("stepsim: wait with negative or NaN duration %g", d))
	}
	a.blockedCont = cont
	a.wakeAlarm.Arm(a.deadline(d))
}

// wake is the parked application's alarm firing: the wait ran out.
func (a *appSim) wake(local float64) {
	a.clockTo(local)
	a.resume()(false)
}

// resume clears the parked state and returns the pending continuation,
// mirroring sim.Proc.park's bookkeeping on wake-up.
func (a *appSim) resume() func(bool) {
	cont := a.blockedCont
	a.blockedCont = nil
	a.interruptPending = false
	return cont
}

// interrupt delivers an interrupt to the parked application: its pending
// wake is cancelled and the interrupted continuation is scheduled at the
// current time — exactly sim.Proc.Interrupt on a Wait-blocked process,
// including the double-delivery drop.
func (a *appSim) interrupt() {
	if a.appDone {
		return
	}
	if a.interruptPending {
		return
	}
	a.interruptPending = true
	a.wakeAlarm.Disarm()
	a.sched(0, "app", a.fn.interrupted)
}

// interrupted is the parked application waking at an interrupt.
func (a *appSim) interrupted(local float64) {
	a.clockTo(local)
	if a.appDone {
		return // aborted between delivery and wake-up
	}
	a.resume()(true)
}

// start begins the application: compute OCI seconds, checkpoint to BB,
// repeat until the required computation completes (crmodel's run loop).
func (a *appSim) start(local float64) {
	a.clockTo(local)
	if a.appDone {
		return // aborted before the first compute cycle
	}
	a.runLoop()
}

func (a *appSim) runLoop() {
	if a.Working() {
		a.computeChunk()
		return
	}
	a.finish()
}

// computeDone follows a compute interval: checkpoint, or finish once the
// work is done (or the run was truncated).
func (a *appSim) computeDone() {
	if !a.Working() {
		a.finish()
		return
	}
	a.bbCheckpoint()
}

// finish completes the application process — normally or truncated; the
// injector observes appDone at its next delivery, exactly as it observes
// !Alive(). The app never waits again, so its wake alarm leaves the
// engine's scan: on a shared engine the other tenants run on without it.
func (a *appSim) finish() {
	a.Finished(a.now())
	a.appDone = true
	a.wakeAlarm.Unbind()
	// A departed job withdraws its in-flight drains from the machine —
	// their bandwidth and drain slots return to the remaining tenants.
	a.drainFlows = a.cancelFlows(a.drainFlows)
	if a.onDone != nil {
		a.onDone(a.Res)
	}
}

// computeChunk opens a compute cycle and computes toward its target,
// absorbing interrupts, then runs computeDone.
func (a *appSim) computeChunk() {
	a.CycleStart(a.now())
	a.computeStep()
}

// computeStep computes what is left of the cycle, or, once the residual
// is below the model's resolution, snaps to the target (crmodel's loop
// exit).
func (a *appSim) computeStep() {
	d := a.Residual()
	if d == 0 {
		a.Progress = a.Target
		a.computeDone()
		return
	}
	a.chunkStart = a.now()
	a.wait(d, a.fn.computeWoke)
	if a.recording {
		a.capture()
	}
}

// computeWoke banks the computation done since computeStep parked.
func (a *appSim) computeWoke(interrupted bool) {
	a.Progress += a.now() - a.chunkStart
	if !interrupted {
		a.Progress = a.Target
		a.computeDone()
		return
	}
	a.handleEvents(a.fn.computeResume)
}

// computeResume continues an interrupted compute interval once its events
// are handled.
func (a *appSim) computeResume() {
	if a.Res.Truncated {
		a.computeDone()
		return
	}
	a.Rebase(a.now())
	a.computeStep()
}

// bbCheckpoint performs the synchronous burst-buffer write of a periodic
// checkpoint; bbWritten follows it.
func (a *appSim) bbCheckpoint() {
	a.bbBegan = a.now()
	a.blockedWait(a.Plat.BBWrite, &a.Res.Overheads.Checkpoint, a.fn.bbWritten)
}

// bbWritten settles the BB write, launches the asynchronous PFS drain if
// it committed, then returns to the run loop.
func (a *appSim) bbWritten(ok bool) {
	if d, drain := a.BBWritten(a.now(), a.bbBegan, ok); drain {
		a.startDrain(d)
	}
	a.runLoop()
}

// drainFrame is one BB→PFS drain in flight; several can be. Frames are
// recycled through the record's free list, their continuations bound
// once. A solo frame binds its alarm to the run's engine on its first
// use in the run (boundRun).
type drainFrame struct {
	a        *appSim
	d        appmodel.Drain
	fid      FlowID
	alarm    sim.Alarm // solo: the drain timer
	boundRun uint64
	firedFn  func(local float64)
	flowFn   func() // shared machine: the arbiter's completion
}

// startDrain launches the asynchronous BB→PFS drain: a fixed-duration
// alarm solo, an arbitered flow (contending for drain slots and
// fair-share bandwidth) on a shared machine.
func (a *appSim) startDrain(d appmodel.Drain) {
	f, fresh := a.drains.take()
	if fresh {
		f.a = a
		f.firedFn, f.flowFn = f.fired, f.flowDone
	}
	f.d = d
	if a.arb == nil {
		if f.boundRun != a.runs {
			a.eng.Bind(&f.alarm, "drain", f.firedFn)
			f.boundRun = a.runs
		}
		f.alarm.Arm(a.deadline(a.Plat.Drain))
		return
	}
	f.fid = a.arb.StartFlow(a.appIdx, ClassDrain, float64(a.Plat.Nodes)*a.Plat.PerNodeGB, a.Plat.Drain, f.flowFn)
	a.drainFlows = append(a.drainFlows, f.fid)
}

// fired is the solo drain alarm running out.
func (f *drainFrame) fired(local float64) {
	f.a.clockTo(local)
	f.done()
}

// flowDone is the arbiter completing the drain's flow.
func (f *drainFrame) flowDone() {
	f.a.syncClock()
	f.done()
}

// done completes the drain and recycles the frame.
func (f *drainFrame) done() {
	a, d := f.a, f.d
	if a.arb != nil {
		a.drainFlows = dropFlow(a.drainFlows, f.fid)
	}
	a.drains.put(f)
	a.DrainDone(a.now(), d)
}

// dropFlow forgets a completed or cancelled flow's handle.
func dropFlow(ids []FlowID, fid FlowID) []FlowID {
	for i, id := range ids {
		if id == fid {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// cancelFlows withdraws every flow of ids from the machine and returns
// the emptied list.
func (a *appSim) cancelFlows(ids []FlowID) []FlowID {
	for _, id := range ids {
		a.arb.CancelFlow(id)
	}
	return ids[:0]
}

// blockedWait blocks the application for dur seconds, accounting the
// elapsed time into bucket and processing any events that interrupt it.
// k receives false if a failure voided the activity before dur fully
// elapsed, true on completion.
func (a *appSim) blockedWait(dur float64, bucket *float64, k func(ok bool)) {
	f, fresh := a.waits.take()
	if fresh {
		f.a = a
		f.wokeFn, f.resumeFn = f.woke, f.resume
	}
	f.epoch, f.remaining, f.bucket, f.k = a.st.Epoch(), dur, bucket, k
	f.step()
}

// waitFrame is one blockedWait in flight. Waits nest — a safeguard or a
// recovery handled inside an interrupted BB write blocks again — so each
// has a frame, recycled through the record's free list with its
// continuations bound once.
type waitFrame struct {
	a         *appSim
	epoch     int
	remaining float64
	start     float64
	bucket    *float64
	k         func(ok bool)
	wokeFn    func(interrupted bool)
	resumeFn  func()
}

// step parks for the remaining duration, or completes the wait.
func (f *waitFrame) step() {
	if f.remaining <= 0 {
		f.done(true)
		return
	}
	f.start = f.a.now()
	f.a.wait(f.remaining, f.wokeFn)
}

// woke accounts the time parked, then completes the wait or handles the
// events that interrupted it.
func (f *waitFrame) woke(interrupted bool) {
	elapsed := f.a.now() - f.start
	f.remaining -= elapsed
	*f.bucket += elapsed
	if !interrupted {
		f.done(true)
		return
	}
	f.a.handleEvents(f.resumeFn)
}

// resume continues the wait once the interrupting events are handled,
// unless a failure among them voided it.
func (f *waitFrame) resume() {
	if f.a.st.Epoch() != f.epoch {
		f.done(false)
		return
	}
	f.step()
}

// done recycles the frame, then runs its continuation.
func (f *waitFrame) done(ok bool) {
	k := f.k
	f.bucket, f.k = nil, nil
	f.a.waits.put(f)
	k(ok)
}

// flowWait is blockedWait for an arbitered PFS transfer: the app parks
// on a flow of volumeGB whose completion time the machine's bandwidth
// arbiter owns. Solo (nil arbiter) it is exactly blockedWait at the
// uncontended duration — which is what keeps solo runs bit-identical.
// An injector interrupt suspends the flow while events are handled
// (its bandwidth returns to the pool, mirroring how a blocked wait's
// clock stops); a voiding failure cancels it and k sees false.
func (a *appSim) flowWait(class WriteClass, volumeGB, soloSeconds float64, bucket *float64, k func(ok bool)) {
	if a.arb == nil || volumeGB <= 0 || soloSeconds <= 0 {
		a.blockedWait(soloSeconds, bucket, k)
		return
	}
	f, fresh := a.flows.take()
	if fresh {
		f.a = a
		f.parkedFn, f.resumeFn, f.doneFn = f.parked, f.resume, f.done
	}
	f.epoch, f.bucket, f.k = a.st.Epoch(), bucket, k
	f.fid = a.arb.StartFlow(a.appIdx, class, volumeGB, soloSeconds, f.doneFn)
	a.blockFlows = append(a.blockFlows, f.fid)
	f.park()
}

// flowFrame is one arbitered blocking transfer in flight. Like waits,
// they nest, so each has a frame from the record's free list with its
// continuations bound once: parked is the app's blockedCont while the
// flow runs, resume continues it after an interrupt, done is the
// arbiter's completion callback.
type flowFrame struct {
	a                *appSim
	fid              FlowID
	epoch            int
	start            float64
	bucket           *float64
	k                func(ok bool)
	parkedFn         func(interrupted bool)
	resumeFn, doneFn func()
}

// park blocks the app on the flow.
func (f *flowFrame) park() {
	f.start = f.a.now()
	f.a.blockedCont = f.parkedFn
}

// parked accounts the time parked, then completes the wait or suspends
// the flow while the interrupting events are handled.
func (f *flowFrame) parked(interrupted bool) {
	a := f.a
	*f.bucket += a.now() - f.start
	if !interrupted {
		f.finish(true)
		return
	}
	a.arb.SuspendFlow(f.fid)
	a.handleEvents(f.resumeFn)
}

// resume cancels the flow if a failure among the handled events voided
// it, or resumes it and parks again.
func (f *flowFrame) resume() {
	a := f.a
	if a.st.Epoch() != f.epoch {
		a.arb.CancelFlow(f.fid)
		a.blockFlows = dropFlow(a.blockFlows, f.fid)
		f.finish(false)
		return
	}
	a.arb.ResumeFlow(f.fid)
	f.park()
}

// done is the arbiter completing the flow: the app wakes.
func (f *flowFrame) done() {
	a := f.a
	a.syncClock()
	a.blockFlows = dropFlow(a.blockFlows, f.fid)
	a.resume()(false)
}

// finish recycles the frame, then runs its continuation.
func (f *flowFrame) finish(ok bool) {
	k := f.k
	f.bucket, f.k = nil, nil
	f.a.flows.put(f)
	k(ok)
}

// handleEvents drains the pending queue, then runs k. A truncated run
// stops draining: the job is dead, the remaining events go nowhere.
func (a *appSim) handleEvents(k func()) {
	if a.pendHead == len(a.pending) || a.Res.Truncated {
		k()
		return
	}
	f, fresh := a.events.take()
	if fresh {
		f.a = a
		f.nextFn = f.next
	}
	f.k = k
	f.next()
}

// eventsFrame is one handleEvents loop in flight: the loops nest (a
// recovery handled inside an interrupted wait parks and handles events
// again), so each has a frame whose next — the continuation every
// handler runs when it is done with its event — is bound once.
type eventsFrame struct {
	a      *appSim
	k      func()
	nextFn func()
}

// next hands the next pending event to its handler, or, once the queue
// is empty (or the run truncated), recycles the frame and runs k.
func (f *eventsFrame) next() {
	a := f.a
	if a.pendHead == len(a.pending) || a.Res.Truncated {
		k := f.k
		f.k = nil
		a.events.put(f)
		k()
		return
	}
	ev := a.pending[a.pendHead]
	if a.pendHead++; a.pendHead == len(a.pending) {
		a.pending, a.pendHead = a.pending[:0], 0
	}
	switch ev.Kind {
	case failure.KindPrediction, failure.KindSpurious:
		a.onPrediction(ev, f.nextFn)
	case failure.KindFailure:
		a.onFailure(ev, f.nextFn)
	default:
		f.next()
	}
}

// onPrediction handles a prediction, enacts the model's reaction, then
// runs k.
func (a *appSim) onPrediction(ev failure.Event, k func()) {
	marked, act := a.Predicted(a.now(), ev)
	if marked {
		f, fresh := a.vulnClears.take()
		if fresh {
			f.a = a
			f.fireFn = f.fire
		}
		f.node, f.failAt = ev.Node, ev.FailTime
		a.sched(math.Max(f.failAt-a.now(), 0), "vuln-clear", f.fireFn)
	}
	switch act {
	case policy.ActMigrate:
		a.startMigration(ev)
		k()
	case policy.ActStartEpisode:
		a.pckptEpisode(ev, k)
	case policy.ActSafeguard:
		a.safeguard(k)
	default:
		k()
	}
}

// vulnFrame is one pending vulnerable-mark clear: a heap event, one per
// prediction, so several can be in flight.
type vulnFrame struct {
	a      *appSim
	node   int
	failAt float64
	fireFn func(local float64)
}

// fire clears the node's vulnerable mark at its predicted failure time.
func (f *vulnFrame) fire(local float64) {
	a, node, failAt := f.a, f.node, f.failAt
	a.vulnClears.put(f)
	a.clockTo(local)
	a.ClearVulnerable(node, failAt)
}

// pckptEpisode runs one coordinated prioritized checkpoint, blocking the
// application throughout, then runs k. It is crmodel's pckptEpisode in
// continuation-passing style: phase 1's loop becomes a recursive
// continuation over the vulnerable nodes' prioritized writes, and its
// `break` the jump to episodeFinish, phase 2's collective write.
func (a *appSim) pckptEpisode(first failure.Event, k func()) {
	a.EpisodeOpened(a.now(), first)
	a.epK = k
	a.episodeDrain()
}

// episodeDrain is phase 1's loop: serve the next vulnerable node, or
// move on once the queue is empty or the episode was abandoned.
func (a *appSim) episodeDrain() {
	if !a.NextVulnerable() {
		a.episodeFinish()
		return
	}
	a.flowWait(ClassVulnerable, a.Plat.PerNodeGB, a.Plat.SingleNodePFSWrite, &a.Res.Overheads.Checkpoint, a.fn.epWritten)
}

// episodeWritten follows one vulnerable node's prioritized write.
func (a *appSim) episodeWritten(ok bool) {
	if !ok {
		a.episodeFinish() // the failure that voided the wait abandoned the episode
		return
	}
	a.VulnerableWritten(a.now())
	a.episodeDrain()
}

// episodeFinish is everything after crmodel's phase-1 loop: phase 2, the
// healthy nodes' collective write, then the commit.
func (a *appSim) episodeFinish() {
	tr, ok := a.EpisodeServed()
	if !ok {
		a.episodeDone()
		return
	}
	if tr.Nodes > 0 {
		a.flowWait(ClassCollective, tr.VolumeGB, tr.Seconds, &a.Res.Overheads.Checkpoint, a.fn.epPhase2)
		return
	}
	a.episodePhase2(true)
}

// episodePhase2 follows the healthy nodes' collective write.
func (a *appSim) episodePhase2(ok bool) {
	if ok {
		a.EpisodeCommitted(a.now())
	} else {
		a.EpisodeAbandoned()
	}
	a.episodeDone()
}

// episodeDone returns from the closed episode to the caller's
// continuation.
func (a *appSim) episodeDone() {
	k := a.epK
	a.epK = nil
	k()
}

// startMigration begins a live migration. The application keeps running;
// completion is a scheduled callback.
func (a *appSim) startMigration(ev failure.Event) {
	m := a.MigrationStarted(a.now(), ev)
	f, fresh := a.migrations.take()
	if fresh {
		f.a = a
		f.doneFn = f.done
	}
	f.m = m
	a.sched(a.Plat.Theta, "migration", f.doneFn)
}

// migrationFrame is one live migration's completion: a heap event, and
// several migrations can be in flight.
type migrationFrame struct {
	a      *appSim
	m      *policy.Migration
	doneFn func(local float64)
}

// done completes the migration.
func (f *migrationFrame) done(local float64) {
	a, m := f.a, f.m
	f.m = nil
	a.migrations.put(f)
	a.clockTo(local)
	a.MigrationDone(a.now(), m)
}

// safeguard runs M1's just-in-time checkpoint, then k. At most one
// safeguard is in flight, so its continuation lives in sgK.
func (a *appSim) safeguard(k func()) {
	if !a.SafeguardStarted(a.now()) {
		k() // the in-flight safeguard covers this prediction too
		return
	}
	a.sgK = k
	a.flowWait(ClassCollective, float64(a.Plat.Nodes)*a.Plat.PerNodeGB, a.Plat.FullPFSWrite, &a.Res.Overheads.Checkpoint, a.fn.sgWritten)
}

// safeguardWritten follows the safeguard's all-node write and returns to
// the caller.
func (a *appSim) safeguardWritten(ok bool) {
	a.SafeguardWritten(a.now(), ok)
	k := a.sgK
	a.sgK = nil
	k()
}

// onFailure handles a failure, waits out its recovery, then runs k.
func (a *appSim) onFailure(ev failure.Event, k func()) {
	rc, ok := a.FailureStruck(a.now(), ev)
	if !ok {
		// The spare pool is exhausted and the run truncated: k unwinds
		// through handleEvents, whose truncated checks stop the chain
		// (crmodel's early returns through the call stack).
		k()
		return
	}
	// Recovery mirrors crmodel's retry structure: the nested
	// `for !blockedWait(...) {}` loops become recovery-frame chains; k is
	// their truncated-abort continuation (crmodel's `return` from the
	// retry loops skips the recovery metering the same way).
	f, fresh := a.recoveries.take()
	if fresh {
		f.a = a
		f.mainLoopFn, f.attemptedFn, f.corruptNextFn, f.waitedFn = f.mainLoop, f.attempted, f.corruptNext, f.waited
	}
	f.k, f.rc, f.i = k, rc, 0
	f.corruptLoop()
}

// recoveryFrame is one failure's recovery in flight. Recoveries nest (a
// failure during a recovery wait is handled inside it), so each has a
// frame from the record's free list. Its loops are crmodel's retry
// loops: corruptLoop charges one restore per corrupt candidate, mainLoop
// the cascades, the restore and the restart attempts; wait is
// crmodel's recoveryWait, one at a time per frame.
type recoveryFrame struct {
	a  *appSim
	k  func()
	rc appmodel.Recovery
	i  int
	// The retry loop's wait: its volume, duration and continuation.
	waitGB, waitDur float64
	waitK           func()

	mainLoopFn, attemptedFn, corruptNextFn func()
	waitedFn                               func(ok bool)
}

// corruptLoop restores from the i-th corrupt candidate, or moves on to
// the main loop once every candidate was tried.
func (f *recoveryFrame) corruptLoop() {
	if f.i >= f.rc.Corrupted {
		f.mainLoop()
		return
	}
	f.wait(f.rc.GB, f.rc.Seconds, f.corruptNextFn)
}

// corruptNext follows one corrupt candidate's torn restore.
func (f *recoveryFrame) corruptNext() {
	f.i++
	f.corruptLoop()
}

// mainLoop waits out the partial restore a cascade voided, or runs the
// restore itself.
func (f *recoveryFrame) mainLoop() {
	if frac, struck := f.a.Cascade(&f.rc); struck {
		f.wait(frac*f.rc.GB, frac*f.rc.Seconds, f.mainLoopFn)
		return
	}
	f.wait(f.rc.GB, f.rc.Seconds, f.attemptedFn)
}

// attempted follows a completed restore: the restart attempt succeeds,
// or fails and charges its backoff before the loop runs again.
func (f *recoveryFrame) attempted() {
	backoff, failed := f.a.RestartFailed(&f.rc)
	if !failed {
		f.a.Recovered(f.a.now(), &f.rc)
		f.exit()
		return
	}
	if backoff > 0 {
		// Backoff is idle waiting, not I/O: never arbitered.
		f.wait(0, backoff, f.mainLoopFn)
		return
	}
	f.mainLoop()
}

// exit recycles the frame and runs the caller's continuation.
func (f *recoveryFrame) exit() {
	k := f.k
	f.k, f.waitK = nil, nil
	f.a.recoveries.put(f)
	k()
}

// wait repeats a recovery-bucket wait until it completes without a
// voiding failure, then runs k. gb > 0 marks the wait as a PFS restore
// read of that volume: on a shared machine it contends at the arbiter
// as a ClassRecovery flow (solo, or gb == 0, it is exactly blockedWait).
// A voiding failure that truncated the run ends the recovery instead.
func (f *recoveryFrame) wait(gb, dur float64, k func()) {
	f.waitGB, f.waitDur, f.waitK = gb, dur, k
	f.a.flowWait(ClassRecovery, gb, dur, &f.a.Res.Overheads.Recovery, f.waitedFn)
}

// waited follows one attempt of the wait.
func (f *recoveryFrame) waited(ok bool) {
	if ok {
		f.waitK()
		return
	}
	if f.a.Res.Truncated {
		f.exit()
		return
	}
	f.wait(f.waitGB, f.waitDur, f.waitK)
}

// injectStart starts the injector "process". A run with a prefix to
// restart from does so once the injector has parked its first delivery,
// unless it admitted an event at time 0.
func (a *appSim) injectStart(local float64) {
	a.clockTo(local)
	a.injectLoop()
	if a.pre != nil && !a.appDone && !a.interruptPending {
		a.warmStart()
	}
}

// injectLoop is the injector "process": it delivers the admitted events
// of the stream to the application. It parks (schedules injectResume for
// injectEv) for future events and delivers same-time events inline,
// exactly like crmodel's injector loop. The parked delivery waits on the
// heap: it fires on under 1 % of dispatches, where an alarm would be
// scanned on every one.
func (a *appSim) injectLoop() {
	for {
		ev := a.stream.Next()
		if a.appDone {
			return
		}
		if dt := ev.Time - a.now(); dt > 0 {
			a.injectEv = ev
			a.sched(dt, "injector", a.fn.injectResume)
			return
		}
		a.deliver(ev)
	}
}

// injectResume is the injector waking to deliver injectEv.
func (a *appSim) injectResume(local float64) {
	a.clockTo(local)
	if a.appDone {
		return
	}
	a.deliver(a.injectEv)
	a.injectLoop()
}

// deliver hands one stream event to the application if the model admits
// it.
func (a *appSim) deliver(ev failure.Event) {
	if a.Admit(ev) {
		a.pending = append(a.pending, ev)
		a.interrupt()
	}
}
