// Package stepsim is the step tier: the five C/R models (B, M1, M2, P1,
// P2) written in continuation-passing style as callbacks on sim.Engine,
// plus the Arbiter contract a multi-tenant machine implements to share
// the PFS between apps. There are no goroutines and no channels: every
// blocking call site of the process-based reference (internal/crmodel)
// appears here as a wait with an explicit continuation, scheduled at the
// same logical point in the same statement order. Because both run on
// the same engine core — one heap, one (time, seq) tie-break — a step
// run observes the identical event order, which is what lets the step
// tier cross-validate bit-identically against crmodel (see
// stepsim_test.go).
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

	"pckpt/internal/cluster"
	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/metrics"
	"pckpt/internal/oci"
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
// platform quantities, the model's strategy and σ, the OCI estimator's
// prior, the spare limit and the stochastic-input plan. A run derives
// nothing. A Cell is read-only, so concurrent runs share it.
type Cell struct {
	cfg    Config
	pol    policy.Policy
	plat   platform.Derived
	sigma  float64
	prior  float64
	spares int
	plan   platform.Plan
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
	plat := cfg.Derive()
	return &Cell{
		cfg:    cfg,
		pol:    policy.For(cfg.Model),
		plat:   plat,
		sigma:  cfg.Model.Sigma(plat),
		prior:  cfg.System.JobFailureRate(cfg.App.Nodes),
		spares: cfg.SpareLimit(),
		plan:   plan,
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
// reg (nil runs unmetered), and returns its accounting. The run's record
// comes from a pool and goes back once the engine has drained; a run
// that panics drops it.
func (c *Cell) Run(seed uint64, reg *metrics.Registry) stats.RunResult {
	eng := sim.NewEngine()
	eng.SetWatchdog(sim.RunEventBudget, 0)
	a := c.start(eng, seed, AppOptions{Metrics: reg})
	eng.RunAll()
	eng.Release()
	res := a.res
	a.release()
	return res
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
	// through the shared pckpt.RunMetrics. Nil costs nothing.
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
func (h *AppHandle) Result() stats.RunResult { return h.a.res }

// Abort kills a running application mid-flight — the machine layer's
// tenant-crash hook. The pending wake is cancelled, every arbitered
// flow (blocking and drain alike) is withdrawn from the machine, and
// the run is marked truncated at the current time; the partial
// accounting is returned. OnDone does NOT fire — the caller owns the
// crash bookkeeping (requeue or give up). Aborting a finished app is a
// no-op returning the final result. Must run on the simulation
// goroutine, between engine events.
func (h *AppHandle) Abort() stats.RunResult {
	a := h.a
	if a.appDone {
		return a.res
	}
	a.syncClock()
	a.wakeAlarm.Disarm()
	a.blockedCont = nil
	a.interruptPending = false
	for _, id := range a.blockFlows {
		a.arb.CancelFlow(id)
	}
	a.blockFlows = a.blockFlows[:0]
	for _, id := range a.drainFlows {
		a.arb.CancelFlow(id)
	}
	a.drainFlows = a.drainFlows[:0]
	a.res.Truncated = true
	a.res.WallSeconds = a.now()
	a.trace(trace.Truncated, -1, "tenant crash")
	a.appDone = true
	return a.res
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

// trace emits a timeline event when tracing is enabled.
func (a *appSim) trace(kind trace.Kind, node int, detail string) {
	if a.cfg.Trace == nil {
		return
	}
	a.cfg.Trace.Record(trace.Event{
		T:        a.now(),
		Kind:     kind,
		Node:     node,
		Progress: a.progress,
		Detail:   detail,
	})
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

// refreshOCI re-derives the checkpoint interval from the current failure
// rate estimate, per Eq. (1) (σ=0) or Eq. (2).
func (a *appSim) refreshOCI() {
	rate := a.est.Rate(a.now())
	a.curOCI = oci.FromJobRate(a.plat.BBWrite, rate, a.sigma)
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
	if a.progress < a.plat.ComputeSeconds && !a.res.Truncated {
		a.computeChunk()
		return
	}
	a.finish()
}

// computeDone follows a compute interval: checkpoint, or finish once the
// work is done (or the run was truncated).
func (a *appSim) computeDone() {
	if a.progress >= a.plat.ComputeSeconds || a.res.Truncated {
		a.finish()
		return
	}
	a.bbCheckpoint()
}

// finish completes the application process — normally or truncated; the
// injector observes appDone at its next delivery, exactly as it observes
// !Alive().
func (a *appSim) finish() {
	a.res.WallSeconds = a.now()
	if a.res.Truncated {
		a.trace(trace.Truncated, -1, "spare pool exhausted")
	} else {
		a.trace(trace.Complete, -1, "")
	}
	a.appDone = true
	// A departed job withdraws its in-flight drains from the machine —
	// their bandwidth and drain slots return to the remaining tenants.
	for _, id := range a.drainFlows {
		a.arb.CancelFlow(id)
	}
	a.drainFlows = a.drainFlows[:0]
	if a.onDone != nil {
		a.onDone(a.res)
	}
}

// computeChunk advances the application by one checkpoint interval,
// absorbing interrupts, then runs computeDone.
func (a *appSim) computeChunk() {
	a.refreshOCI()
	a.chunkTarget = min(a.progress+a.curOCI, a.plat.ComputeSeconds)
	if a.cfg.Trace != nil {
		a.trace(trace.CycleStart, -1, fmt.Sprintf("interval=%.0fs", a.chunkTarget-a.progress))
	}
	a.computeStep()
}

// computeStep computes toward chunkTarget. It mirrors crmodel's residual
// snap: the float sums can stall a hair short of the target once
// simulated time can no longer resolve the residual; treat anything below
// a microsecond as done and snap. Without the snap, a rollback that lands
// progress just short of ComputeSeconds livelocks the run: compute 0s,
// checkpoint, forever.
func (a *appSim) computeStep() {
	if a.chunkTarget-a.progress <= 1e-6 {
		a.progress = a.chunkTarget
		a.computeDone()
		return
	}
	a.chunkStart = a.now()
	a.wait(a.chunkTarget-a.progress, a.fn.computeWoke)
}

// computeWoke banks the computation done since computeStep parked.
func (a *appSim) computeWoke(interrupted bool) {
	a.progress += a.now() - a.chunkStart
	if !interrupted {
		a.progress = a.chunkTarget
		a.computeDone()
		return
	}
	a.handleEvents(a.fn.computeResume)
}

// computeResume continues an interrupted compute interval once its events
// are handled.
func (a *appSim) computeResume() {
	if a.res.Truncated {
		a.computeDone()
		return
	}
	if a.st.TakeRescheduled() {
		// A proactive action committed a full checkpoint; re-base the
		// periodic schedule on the fresh interval.
		a.refreshOCI()
		a.chunkTarget = min(a.progress+a.curOCI, a.plat.ComputeSeconds)
	}
	a.computeStep()
}

// bbCheckpoint performs the synchronous burst-buffer write of a periodic
// checkpoint; bbWritten follows it.
func (a *appSim) bbCheckpoint() {
	a.bbBegan = a.now()
	a.blockedWait(a.plat.BBWrite, &a.res.Overheads.Checkpoint, a.fn.bbWritten)
}

// bbWritten commits a completed BB write, launches the asynchronous PFS
// drain, then returns to the run loop.
func (a *appSim) bbWritten(ok bool) {
	if !ok {
		// A failure voided the write and rolled progress back; resume
		// computing, the next cycle will checkpoint the redone state.
		a.met.BBAborted.Inc()
		a.runLoop()
		return
	}
	a.met.BBWrite.Observe(a.now() - a.bbBegan)
	if a.inj.BBWriteFails() {
		a.res.BBWriteFailures++
		a.trace(trace.BBWrite, -1, "write failed (injected)")
		a.runLoop()
		return
	}
	a.res.Checkpoints++
	if a.inj.CorruptCommit() {
		a.st.MarkCorrupt(a.progress)
	}
	a.trace(trace.BBWrite, -1, "")
	a.cl.RecordBBCheckpointAll(a.progress)
	captured := a.progress
	gen, depth := a.st.BeginDrain()
	a.met.DrainDepth.Set(a.now(), float64(depth))
	a.startDrain(captured, gen)
	a.runLoop()
}

// drainFrame is one BB→PFS drain in flight; several can be. Frames are
// recycled through the record's free list, their continuations bound
// once. A solo frame binds its alarm to the run's engine on its first
// use in the run (boundRun).
type drainFrame struct {
	a        *appSim
	captured float64
	gen      int
	fid      FlowID
	alarm    sim.Alarm // solo: the drain timer
	boundRun uint64
	firedFn  func(local float64)
	flowFn   func() // shared machine: the arbiter's completion
}

// startDrain launches the asynchronous BB→PFS drain: a fixed-duration
// alarm solo, an arbitered flow (contending for drain slots and
// fair-share bandwidth) on a shared machine.
func (a *appSim) startDrain(captured float64, gen int) {
	f, fresh := a.drains.take()
	if fresh {
		f.a = a
		f.firedFn, f.flowFn = f.fired, f.flowDone
	}
	f.captured, f.gen = captured, gen
	if a.arb == nil {
		if f.boundRun != a.runs {
			a.eng.Bind(&f.alarm, "drain", f.firedFn)
			f.boundRun = a.runs
		}
		f.alarm.Arm(a.deadline(a.plat.Drain))
		return
	}
	f.fid = a.arb.StartFlow(a.appIdx, ClassDrain, float64(a.plat.Nodes)*a.plat.PerNodeGB, a.plat.Drain, f.flowFn)
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
	a, captured, gen := f.a, f.captured, f.gen
	if a.arb != nil {
		a.dropDrainFlow(f.fid)
	}
	a.drains.put(f)
	depth, current := a.st.FinishDrain(gen)
	a.met.DrainDepth.Set(a.now(), float64(depth))
	// The drain completes unless a newer checkpoint superseded it.
	if current {
		if a.inj.PFSWriteFails() {
			a.res.PFSWriteFailures++
			a.trace(trace.DrainDone, -1, "drain failed (injected)")
			return
		}
		a.commitFullPFS(captured)
		a.trace(trace.DrainDone, -1, "")
	}
}

// dropDrainFlow forgets a completed drain's flow handle.
func (a *appSim) dropDrainFlow(fid FlowID) {
	for i, id := range a.drainFlows {
		if id == fid {
			a.drainFlows = append(a.drainFlows[:i], a.drainFlows[i+1:]...)
			return
		}
	}
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
		a.dropBlockFlow(f.fid)
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
	a.dropBlockFlow(f.fid)
	a.resume()(false)
}

// finish recycles the frame, then runs its continuation.
func (f *flowFrame) finish(ok bool) {
	k := f.k
	f.bucket, f.k = nil, nil
	f.a.flows.put(f)
	k(ok)
}

// dropBlockFlow forgets a completed or cancelled blocking flow's handle.
func (a *appSim) dropBlockFlow(fid FlowID) {
	for i, id := range a.blockFlows {
		if id == fid {
			a.blockFlows = append(a.blockFlows[:i], a.blockFlows[i+1:]...)
			return
		}
	}
}

// handleEvents drains the pending queue, then runs k. A truncated run
// stops draining: the job is dead, the remaining events go nowhere.
func (a *appSim) handleEvents(k func()) {
	if a.pendHead == len(a.pending) || a.res.Truncated {
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
	if a.pendHead == len(a.pending) || a.res.Truncated {
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

// onPrediction records the prediction, marks the node vulnerable, and
// executes whatever proactive action the model's strategy decides.
func (a *appSim) onPrediction(ev failure.Event, k func()) {
	if ev.Kind == failure.KindPrediction {
		a.st.RecordPrediction(ev.ID, policy.Prediction{Node: ev.Node, FailAt: ev.FailTime, Lead: ev.Lead})
		if a.cfg.Trace != nil {
			a.trace(trace.Prediction, ev.Node, fmt.Sprintf("lead=%.1fs", ev.Lead))
		}
	} else if a.cfg.Trace != nil {
		a.trace(trace.SpuriousPrediction, ev.Node, fmt.Sprintf("lead=%.1fs", ev.Lead))
	}
	if err := a.cl.MarkVulnerable(ev.Node, ev.FailTime); err == nil {
		// Clear the vulnerable mark once the predicted failure time has
		// passed without a newer prediction superseding it.
		f, fresh := a.vulnClears.take()
		if fresh {
			f.a = a
			f.fireFn = f.fire
		}
		f.node, f.failAt = ev.Node, ev.FailTime
		a.sched(math.Max(f.failAt-a.now(), 0), "vuln-clear", f.fireFn)
	}
	switch act := a.pol.OnPrediction(&a.st, ev.Node, ev.Lead, a.plat.Theta); act {
	case policy.ActJoinEpisode:
		// Phase 1 in progress: the new vulnerable node joins the
		// node-local priority queue (lower lead = higher priority).
		a.st.Episode().Q.Push(ev.FailTime, ev)
		k()
	case policy.ActMigrate:
		a.startMigration(ev)
		k()
	case policy.ActStartEpisode:
		a.pckptEpisode(ev, k)
	case policy.ActSafeguard:
		a.safeguard(k)
	case policy.ActNone:
		k()
	default:
		panic(fmt.Sprintf("stepsim: unsupported action %d for model %v", act, a.cfg.Model))
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

// fire clears the node's vulnerable mark unless a newer prediction
// superseded it.
func (f *vulnFrame) fire(local float64) {
	a, node, failAt := f.a, f.node, f.failAt
	a.vulnClears.put(f)
	a.clockTo(local)
	n := a.cl.Node(node)
	if n.State == cluster.Vulnerable && n.PredictedFailAt == failAt {
		a.cl.MarkHealthy(node)
	}
}

// pckptEpisode runs one coordinated prioritized checkpoint: phase 1
// serves vulnerable nodes serially by lead-time priority with
// uncontended PFS access; phase 2 commits the remaining nodes at
// aggregate bandwidth. The application is blocked throughout (healthy
// nodes wait). A failure during the episode abandons the remainder.
//
// This is crmodel's pckptEpisode in continuation-passing style: the
// drain loop becomes a recursive continuation, `break` and the deferred
// EndEpisode become the finish/done continuations, and every injector
// draw, metric observation, and trace record keeps its statement order
// — which is what holds the port bit-identical to the app tier.
func (a *appSim) pckptEpisode(first failure.Event, k func()) {
	a.res.ProactiveCkpts++
	a.trace(trace.EpisodeStart, first.Node, "")
	a.epBegin = a.now()
	a.ep = a.st.BeginEpisode(a.progress)
	a.epK = k
	a.ep.Q.Push(first.FailTime, first)
	// A p-ckpt request supersedes in-flight migrations (Fig. 5): abort
	// them and requeue their nodes as vulnerable.
	a.st.AbortMigrations(a.fn.epAbortMigration)
	a.met.EpisodeWidth.Observe(float64(a.cl.AtRisk()))
	a.episodeDrain()
}

// episodeAbortMigration accounts one migration the episode superseded
// and queues its node for phase 1.
func (a *appSim) episodeAbortMigration(ev failure.Event) {
	a.res.AbortedMigrations++
	a.trace(trace.MigrationAborted, ev.Node, "superseded by p-ckpt")
	if a.cl.Node(ev.Node).State == cluster.Migrating {
		a.cl.AbortMigration(ev.Node, ev.FailTime)
	}
	a.ep.Q.Push(ev.FailTime, ev)
}

// episodeDone closes the episode (crmodel's `defer a.st.EndEpisode()`)
// and returns to the caller's continuation.
func (a *appSim) episodeDone() {
	a.st.EndEpisode()
	k := a.epK
	a.ep, a.epK = nil, nil
	k()
}

// episodeDrain is phase 1's loop: serve the next vulnerable node, or
// move on once the queue is empty or the episode was abandoned.
func (a *appSim) episodeDrain() {
	if a.ep.Q.Len() == 0 || a.ep.Abandoned {
		a.episodeFinish()
		return
	}
	_, a.epEv = a.ep.Q.Pop()
	a.flowWait(ClassVulnerable, a.plat.PerNodeGB, a.plat.SingleNodePFSWrite, &a.res.Overheads.Checkpoint, a.fn.epWritten)
}

// episodeWritten follows one vulnerable node's prioritized write.
func (a *appSim) episodeWritten(ok bool) {
	if !ok {
		a.episodeFinish() // the failure that voided the wait abandoned ep
		return
	}
	ep, ev := a.ep, a.epEv
	if a.inj.PFSWriteFails() {
		// The vulnerable node's prioritized write tore. If the
		// remaining lead time still covers another attempt, the
		// node re-enters the lead-time priority queue; otherwise
		// its prediction goes unserved.
		a.res.PFSWriteFailures++
		if ev.Kind == failure.KindPrediction && a.now()+a.plat.SingleNodePFSWrite <= ev.FailTime {
			ep.Q.Push(ev.FailTime, ev)
		}
		a.episodeDrain()
		return
	}
	ep.Committed++
	a.met.CommitLat.Observe(a.now() - a.epBegin)
	a.trace(trace.VulnerableCommit, ev.Node, "")
	a.cl.RecordPFSCheckpoint(ev.Node, ep.StartProgress)
	if a.cl.Node(ev.Node).State == cluster.Vulnerable {
		a.cl.MarkHealthy(ev.Node)
	}
	if ev.Kind == failure.KindPrediction && a.now() <= ev.FailTime {
		// The vulnerable node's state reached the PFS before its
		// failure: the failure is mitigated.
		a.st.Mitigate(ev.ID, ep.StartProgress)
		a.met.LeadConsumed.Observe(a.now() - (ev.FailTime - ev.Lead))
		a.met.LeadMargin.Observe(ev.FailTime - a.now())
	}
	a.episodeDrain()
}

// episodeFinish is everything after crmodel's drain loop: phase 2, the
// healthy nodes' collective write, then the commit.
func (a *appSim) episodeFinish() {
	if a.ep.Abandoned {
		a.met.EpisodesAbandoned.Inc()
		a.episodeDone()
		return
	}
	// Phase 2: pfs-commit broadcast; healthy nodes write together.
	healthy := a.plat.Nodes - a.ep.Committed
	if healthy > 0 {
		tr := a.cfg.IO.PFSWriteTransfer(healthy, a.plat.PerNodeGB)
		a.epGBs = tr.GBs
		a.flowWait(ClassCollective, tr.VolumeGB, tr.Seconds, &a.res.Overheads.Checkpoint, a.fn.epPhase2)
		return
	}
	a.episodeCommit()
}

// episodePhase2 follows the healthy nodes' collective write.
func (a *appSim) episodePhase2(ok bool) {
	if !ok {
		a.met.EpisodesAbandoned.Inc()
		a.episodeDone()
		return
	}
	a.met.PFSGBs.Observe(a.epGBs)
	a.episodeCommit()
}

// episodeCommit commits the episode's full checkpoint.
func (a *appSim) episodeCommit() {
	ep := a.ep
	if a.inj.PFSWriteFails() {
		// The phase-2 collective write failed: the episode's full
		// checkpoint never commits (phase-1 mitigations stand —
		// those nodes' states did reach the PFS).
		a.res.PFSWriteFailures++
	} else {
		a.commitFullPFS(ep.StartProgress)
		if a.inj.CorruptCommit() {
			a.st.MarkCorrupt(ep.StartProgress)
		}
		a.st.MarkRescheduled()
	}
	a.met.EpisodeDur.Observe(a.now() - a.epBegin)
	if a.cfg.Trace != nil {
		a.trace(trace.EpisodeEnd, -1, fmt.Sprintf("blocked=%.1fs committed=%d", a.now()-a.epBegin, ep.Committed))
	}
	a.episodeDone()
}

// startMigration begins a live migration. The application keeps running;
// completion is a scheduled callback.
func (a *appSim) startMigration(ev failure.Event) {
	m := a.st.StartMigration(ev)
	if a.cfg.Trace != nil {
		a.trace(trace.MigrationStart, ev.Node, fmt.Sprintf("theta=%.1fs", a.plat.Theta))
	}
	a.cl.MarkMigrating(ev.Node)
	f, fresh := a.migrations.take()
	if fresh {
		f.a = a
		f.doneFn = f.done
	}
	f.m, f.ev = m, ev
	a.sched(a.plat.Theta, "migration", f.doneFn)
}

// migrationFrame is one live migration's completion: a heap event, and
// several migrations can be in flight.
type migrationFrame struct {
	a      *appSim
	m      *policy.Migration
	ev     failure.Event
	doneFn func(local float64)
}

// done completes the migration unless it was aborted meanwhile.
func (f *migrationFrame) done(local float64) {
	a, m, ev := f.a, f.m, f.ev
	f.m = nil
	a.migrations.put(f)
	a.clockTo(local)
	if !a.st.FinishMigration(m) {
		return
	}
	a.res.Migrations++
	a.trace(trace.MigrationDone, ev.Node, "")
	// The application dilates slightly while migrating.
	a.res.Overheads.Checkpoint += a.cfg.LM.DilationSeconds(a.plat.PerNodeGB)
	if a.cl.Node(ev.Node).State == cluster.Migrating {
		a.cl.MarkHealthy(ev.Node)
	}
	if ev.Kind == failure.KindPrediction {
		a.st.MarkAvoided(ev.ID)
		a.res.Avoided++
		a.st.ForgetPrediction(ev.ID)
	}
}

// safeguard runs M1's just-in-time checkpoint: every node writes to the
// PFS synchronously, racing the predicted failure. safeguardDone stands
// in for crmodel's deferred safeguarding-flag clear: it runs on every
// exit path before control returns to the caller's continuation. At
// most one safeguard is in flight, so its state lives in sg* fields.
func (a *appSim) safeguard(k func()) {
	if a.safeguarding {
		k() // the in-flight safeguard covers this prediction too
		return
	}
	a.safeguarding = true
	a.sgK = k
	a.res.ProactiveCkpts++
	a.trace(trace.SafeguardStart, -1, "")
	a.sgBegan = a.now()
	a.sgStart = a.progress
	a.flowWait(ClassCollective, float64(a.plat.Nodes)*a.plat.PerNodeGB, a.plat.FullPFSWrite, &a.res.Overheads.Checkpoint, a.fn.sgWritten)
}

// safeguardDone clears the in-flight flag and returns to the caller.
func (a *appSim) safeguardDone() {
	a.safeguarding = false
	k := a.sgK
	a.sgK = nil
	k()
}

// safeguardWritten follows the safeguard's all-node write.
func (a *appSim) safeguardWritten(ok bool) {
	if !ok {
		a.safeguardDone() // the failure won the race (or rolled us back)
		return
	}
	if a.inj.PFSWriteFails() {
		a.res.PFSWriteFailures++
		a.trace(trace.SafeguardEnd, -1, "write failed (injected)")
		a.safeguardDone()
		return
	}
	a.commitFullPFS(a.sgStart)
	if a.inj.CorruptCommit() {
		a.st.MarkCorrupt(a.sgStart)
	}
	a.st.MarkRescheduled()
	a.trace(trace.SafeguardEnd, -1, "")
	a.sgT = a.now()
	a.met.SafeguardDur.Observe(a.sgT - a.sgBegan)
	if a.plat.FullPFSWrite > 0 {
		a.met.PFSGBs.Observe(float64(a.plat.Nodes) * a.plat.PerNodeGB / a.plat.FullPFSWrite)
	}
	a.st.EachPrediction(a.fn.sgMitigate)
	a.safeguardDone()
}

// safeguardMitigate marks one outstanding prediction mitigated if its
// failure has not struck by the safeguard's commit at sgT: the safeguard
// committed everyone's state before it.
func (a *appSim) safeguardMitigate(id int64, pi policy.Prediction) {
	if pi.FailAt >= a.sgT {
		a.st.Mitigate(id, a.sgStart)
		a.met.LeadConsumed.Observe(a.sgT - (pi.FailAt - pi.Lead))
		a.met.LeadMargin.Observe(pi.FailAt - a.sgT)
	}
}

// commitFullPFS records a full-application checkpoint at progress q as
// resident on the PFS.
func (a *appSim) commitFullPFS(q float64) {
	if a.st.CommitPFS(q) {
		a.cl.RecordPFSCheckpointAll(q)
	}
}

// onFailure handles a failure striking node ev.Node: classify it, roll
// progress back, perform recovery, replace the node, then run k.
func (a *appSim) onFailure(ev failure.Event, k func()) {
	a.res.Failures++
	if ev.Lead > 0 {
		a.res.Predicted++
	}
	out := a.pol.OnFailure(&a.st, ev)
	if out.MigrationAborted {
		a.res.AbortedMigrations++
	}
	a.cl.Fail(ev.Node)
	if out.Mitigated {
		a.res.Mitigated++
	}
	q, fullPFSRestore, corrupted := a.st.ResolveRestart(a.cl.RecoverableProgress(ev.Node), out)
	if corrupted > 0 {
		a.res.CorruptRestarts += corrupted
		a.inj.ObserveCorruptRestarts(corrupted)
		// The checkpoint records claiming the discarded generations are
		// lies now; no later restart may try them again.
		a.cl.ClampCheckpoints(q)
	}
	recovery := a.plat.RecoveryBB
	// A PFS restore reads the full checkpoint over the shared filesystem
	// and contends at the arbiter; BB recovery is node-local (no volume).
	recoveryGB := 0.0
	if fullPFSRestore {
		recovery = a.plat.RecoveryPFS
		recoveryGB = float64(a.plat.Nodes) * a.plat.PerNodeGB
	}
	loss := 0.0
	if a.progress > q {
		loss = a.progress - q
		a.res.Recompute += loss
		a.progress = q
	}
	a.met.RecomputeLoss.Observe(loss)
	if fullPFSRestore && recovery > 0 {
		a.met.PFSGBs.Observe(float64(a.plat.Nodes) * a.plat.PerNodeGB / recovery)
	}
	if a.cfg.Trace != nil {
		outcome := "unhandled"
		if out.Mitigated {
			outcome = "mitigated"
		}
		a.trace(trace.Failure, ev.Node, fmt.Sprintf("%s loss=%.0fs", outcome, loss))
	}
	if err := a.cl.Replace(ev.Node); err != nil {
		// Spare pool exhausted: the resource manager cannot re-host the
		// failed rank, so the failure is job-fatal. The run ends truncated
		// at the current time — no recovery is charged; k unwinds through
		// handleEvents, whose truncated checks stop the chain (crmodel's
		// early returns through the call stack).
		a.res.Truncated = true
		k()
		return
	}
	// Recovery mirrors crmodel's retry structure: corrupt candidates cost
	// a torn read each, cascades void the partial restore, and failed
	// restart attempts charge deterministic doubling backoff. The nested
	// `for !blockedWait(...) {}` loops become recovery-frame chains; k is
	// their truncated-abort continuation (crmodel's `return` from the
	// retry loops skips the recovery metering the same way).
	f, fresh := a.recoveries.take()
	if fresh {
		f.a = a
		f.mainLoopFn, f.attemptedFn, f.corruptNextFn, f.waitedFn = f.mainLoop, f.attempted, f.corruptNext, f.waited
	}
	f.k, f.node = k, ev.Node
	f.began, f.recovery, f.recoveryGB = a.now(), recovery, recoveryGB
	f.attempt, f.cascades, f.corrupted, f.i = 0, 0, corrupted, 0
	f.corruptLoop()
}

// recoveryFrame is one failure's recovery in flight. Recoveries nest (a
// failure during a recovery wait is handled inside it), so each has a
// frame from the record's free list. Its loops are crmodel's retry
// loops: corruptLoop charges one restore per corrupt candidate, mainLoop
// the cascades, the restore and the restart attempts; wait is
// crmodel's `for !a.blockedWait(p, dur, &a.res.Overheads.Recovery) {}`,
// one at a time per frame.
type recoveryFrame struct {
	a                    *appSim
	k                    func()
	node                 int
	began                float64
	recovery, recoveryGB float64
	attempt, cascades    int
	corrupted, i         int
	// The retry loop's wait: its volume, duration and continuation.
	waitGB, waitDur float64
	waitK           func()

	mainLoopFn, attemptedFn, corruptNextFn func()
	waitedFn                               func(ok bool)
}

// corruptLoop restores from the i-th corrupt candidate, or moves on to
// the main loop once every candidate was tried.
func (f *recoveryFrame) corruptLoop() {
	if f.i >= f.corrupted {
		f.mainLoop()
		return
	}
	f.wait(f.recoveryGB, f.recovery, f.corruptNextFn)
}

// corruptNext follows one corrupt candidate's torn restore.
func (f *recoveryFrame) corruptNext() {
	f.i++
	f.corruptLoop()
}

// mainLoop draws a cascade — every iteration, even at the depth cap,
// exactly as the app tier does, to keep the rng plan in lockstep — and
// waits out the voided partial restore, or runs the restore itself.
func (f *recoveryFrame) mainLoop() {
	a := f.a
	if strike, frac := a.inj.CascadeRecovery(); strike && f.cascades < faultinject.MaxCascadeDepth {
		f.cascades++
		a.res.Cascades++
		f.wait(frac*f.recoveryGB, frac*f.recovery, f.mainLoopFn)
		return
	}
	f.wait(f.recoveryGB, f.recovery, f.attemptedFn)
}

// attempted follows a completed restore: the restart attempt succeeds,
// or fails and charges its backoff before the loop runs again.
func (f *recoveryFrame) attempted() {
	a := f.a
	fail, backoff := a.inj.RestartAttemptFails(f.attempt)
	if !fail {
		f.finish()
		return
	}
	f.attempt++
	a.res.RestartRetries++
	if backoff > 0 {
		// Backoff is idle waiting, not I/O: never arbitered.
		f.wait(0, backoff, f.mainLoopFn)
		return
	}
	f.mainLoop()
}

// finish meters the completed recovery and returns to the caller.
func (f *recoveryFrame) finish() {
	a := f.a
	if f.cascades > 0 {
		a.inj.ObserveCascadeDepth(f.cascades)
	}
	a.met.RecoveryDur.Observe(a.now() - f.began)
	a.trace(trace.RecoveryDone, f.node, "")
	f.exit()
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
// A voiding failure that truncated the run ends the recovery instead
// (crmodel's `if a.res.Truncated { return }` inside those loops).
func (f *recoveryFrame) wait(gb, dur float64, k func()) {
	f.waitGB, f.waitDur, f.waitK = gb, dur, k
	f.a.flowWait(ClassRecovery, gb, dur, &f.a.res.Overheads.Recovery, f.waitedFn)
}

// waited follows one attempt of the wait.
func (f *recoveryFrame) waited(ok bool) {
	if ok {
		f.waitK()
		return
	}
	if f.a.res.Truncated {
		f.exit()
		return
	}
	f.wait(f.waitGB, f.waitDur, f.waitK)
}

// injectStart starts the injector "process".
func (a *appSim) injectStart(local float64) {
	a.clockTo(local)
	a.injectLoop()
}

// injectLoop is the injector "process": it delivers the event stream to
// the application, skipping failures avoided by completed migrations.
// It parks (arms injectAlarm, whose callback is injectResume, for
// injectEv) for future events and delivers same-time events inline,
// exactly like crmodel's injector loop.
func (a *appSim) injectLoop() {
	for {
		ev := a.stream.Next()
		if a.appDone {
			return
		}
		if dt := ev.Time - a.now(); dt > 0 {
			a.injectEv = ev
			a.injectAlarm.Arm(a.deadline(dt))
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

// deliver classifies one stream event and hands it to the application.
func (a *appSim) deliver(ev failure.Event) {
	switch ev.Kind {
	case failure.KindFailure:
		if a.st.ConsumeAvoided(ev.ID) {
			return // live migration emptied the node in time
		}
		a.est.Observe()
	default:
		if !a.cfg.Model.UsesPrediction() {
			return // model B ignores the predictor entirely
		}
	}
	a.pending = append(a.pending, ev)
	a.interrupt()
}
