package stepsim

import (
	"sync"

	"pckpt/internal/appmodel"
	"pckpt/internal/cluster"
	"pckpt/internal/failure"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/sim"
	"pckpt/internal/stats"
)

// appSim is one step-tier run record: the shared model's run
// (appmodel.Run, in appRun) and the scheduler that executes it. Where
// crmodel runs the application as a goroutine, here it is a
// continuation chain of engine callbacks: every wait of the process-based
// tier appears as a wait with an explicit continuation, between the same
// appmodel transitions in the same order — which is what makes a run
// bit-identical to the app tier on the shared failure stream.
//
// Records are recycled through recordPool. Everything a run writes is
// either in appRun, which every start zeroes whole, or in storage the
// start resets in place: the node table, the lifecycle state, the
// sources, the pending queue, the flow lists and the frame free lists.
// The method values the event path schedules, and the Run's hooks, are
// bound once per record.
type appSim struct {
	appRun

	cl cluster.Cluster
	st policy.State
	in platform.Inputs
	fn boundFns
	// runs counts the record's starts; a solo drain frame binds its alarm
	// on its first use in a run (boundRun), so a dispatch scans only the
	// alarms this run uses.
	runs uint64
	// pending is the queue of delivered stream events the app has not
	// handled yet, pending[pendHead:] (pendHead lives in appRun).
	pending []failure.Event
	// drainFlows tracks in-flight drain transfers at the arbiter so a
	// finished (or truncated) job withdraws them from the machine.
	drainFlows []FlowID
	// blockFlows tracks the arbitered flows the app is parked on —
	// including suspended outer flows of nested waits — so an aborted
	// tenant withdraws them from the machine.
	blockFlows []FlowID

	// The frame free lists of the continuations that can have several
	// instances in flight (see DESIGN.md, "Continuation frames").
	waits      frames[waitFrame]
	drains     frames[drainFrame]
	flows      frames[flowFrame]
	events     frames[eventsFrame]
	vulnClears frames[vulnFrame]
	migrations frames[migrationFrame]
	recoveries frames[recoveryFrame]

	handle AppHandle
}

// appRun is the part of a record one run owns outright: a start zeroes
// it whole, so no field of it can leak from one run into the next.
type appRun struct {
	// Run is the model's state; its node table and lifecycle state are
	// the record's cl and st, its setup the cell's.
	appmodel.Run
	eng *sim.Engine
	// stream and the Run's Inj point into the record's platform.Inputs.
	stream failure.EventSource

	// t0 is the app's start time on the (possibly shared) engine, and
	// localNow the app's own clock in seconds since t0. The local clock
	// advances to each event's locally-computed deadline rather than
	// being re-derived from the engine clock: subtracting t0 back out
	// would lose last-ulp bits, and those bits compound (an ulp-short
	// progress buys a whole extra checkpoint cycle). Every time in the
	// app's accounting, trace, and failure stream is local, so a job
	// admitted mid-machine-run computes the same timeline a solo run
	// does.
	t0       float64
	localNow float64
	// arb, when non-nil, is the shared machine's bandwidth arbiter: PFS
	// transfers become flows priced against the other tenants instead of
	// fixed solo durations. appIdx identifies this app at the arbiter.
	arb    Arbiter
	appIdx int
	// onDone, when non-nil, observes the final result the moment the app
	// finishes (the shared-machine completion hook).
	onDone func(stats.RunResult)

	pendHead int

	// Step-machine state standing in for the application goroutine:
	// appDone mirrors !Proc.Alive(); wakeAlarm is the wake while the app
	// waits; blockedCont is the wait's continuation (invoked with
	// interrupted=true when the injector cuts it short); interruptPending
	// drops double interrupt deliveries exactly like sim.Proc (the first
	// reason wins).
	appDone          bool
	wakeAlarm        sim.Alarm
	blockedCont      func(interrupted bool)
	interruptPending bool

	// The state of the continuations with at most one instance in flight
	// lives in fields: chunkStart for the compute interval, bbBegan for
	// the BB write, injectEv for the event the parked injector delivers
	// next; sgK and epK are the callers' continuations of M1's safeguard
	// and of the live p-ckpt episode (episodes never overlap).
	chunkStart float64
	bbBegan    float64
	injectEv   failure.Event
	sgK, epK   func()

	// pre is the cell's failure-free prefix (prefix.go): the one this run
	// restarts from, or, when recording, the one it fills. credited is the
	// dispatches the run skipped by restarting.
	pre       *prefix
	recording bool
	credited  uint64
}

// boundFns are the record's method values, bound once when the record
// is made, so scheduling or parking on one allocates nothing.
type boundFns struct {
	start, injectStart, wake, injectResume, interrupted func(local float64)
	computeWoke, bbWritten                              func(bool)
	computeResume                                       func()
	sgWritten, epPhase2, epWritten                      func(ok bool)
	observe                                             cluster.Observer
	model                                               appmodel.Hooks
}

// recordPool recycles run records across the runs of a sweep and the
// tenants of a machine; a CHIMERA run's node table has 2272 entries.
var recordPool = sync.Pool{New: func() any { return newRecord() }}

// newRecord makes a record and binds its method values.
func newRecord() *appSim {
	a := new(appSim)
	a.handle.a = a
	a.fn = boundFns{
		start:         a.start,
		injectStart:   a.injectStart,
		wake:          a.wake,
		injectResume:  a.injectResume,
		interrupted:   a.interrupted,
		computeWoke:   a.computeWoke,
		bbWritten:     a.bbWritten,
		computeResume: a.computeResume,
		sgWritten:     a.safeguardWritten,
		epPhase2:      a.episodePhase2,
		epWritten:     a.episodeWritten,
		observe:       a.observeCluster,
		model:         a.Bind(),
	}
	return a
}

// reset readies the record for one run of c on eng: appRun is zeroed
// and every kept structure reset in place, in the order crmodel sets a
// run up (the metered series resolve in the same order).
func (a *appSim) reset(c *Cell, eng *sim.Engine, seed uint64, opts AppOptions) {
	a.appRun = appRun{
		eng: eng, t0: eng.Now(),
		arb: opts.Arbiter, appIdx: opts.AppIndex, onDone: opts.OnDone,
	}
	a.runs++
	a.Init(&c.setup, &a.cl, &a.st, a.fn.model, opts.Metrics)
	a.pending = a.pending[:0]
	a.drainFlows = a.drainFlows[:0]
	a.blockFlows = a.blockFlows[:0]
	a.waits.reset()
	a.drains.reset()
	a.flows.reset()
	a.events.reset()
	a.vulnClears.reset()
	a.migrations.reset()
	a.recoveries.reset()
	eng.Bind(&a.wakeAlarm, "app", a.fn.wake)
	if opts.Metrics != nil {
		a.cl.SetObserver(a.fn.observe)
	}
	a.stream, a.Inj = c.plan.Seed(&a.in, seed, opts.Metrics)
}

// observeCluster is a metered run's cluster observer, stamped with the
// engine clock.
func (a *appSim) observeCluster(int, cluster.State, cluster.State) {
	a.Met.CountVulnerable(a.eng.Now(), &a.cl)
}

// clear drops everything the finished run referenced — its cell's
// setup, engine, arbiter, completion hook, and every metric handle, the node table's
// observer and the sources' meters included — so a pooled record keeps
// no run alive. A second clear is a no-op.
func (a *appSim) clear() {
	a.cl.SetObserver(nil)
	a.in.Drop()
	a.appRun = appRun{}
}

// release clears the record and returns it to recordPool. Call it only
// once the run's engine has drained: an aborted app's pending callbacks
// still touch the record until then.
func (a *appSim) release() {
	if a.Setup == nil {
		return // released already
	}
	a.clear()
	recordPool.Put(a)
}

// frames is a record's free list of one frame type. all holds every
// frame the record made, so a start takes back the frames a run left in
// flight (an aborted tenant's, a truncated run's) without allocating.
type frames[F any] struct {
	all, free []*F
}

// take returns a free frame, or a new one (fresh) for the caller to bind.
func (p *frames[F]) take() (f *F, fresh bool) {
	if n := len(p.free); n > 0 {
		f = p.free[n-1]
		p.free = p.free[:n-1]
		return f, false
	}
	f = new(F)
	p.all = append(p.all, f)
	return f, true
}

// put returns a frame whose continuation has run out.
func (p *frames[F]) put(f *F) { p.free = append(p.free, f) }

// reset frees every frame the record owns.
func (p *frames[F]) reset() { p.free = append(p.free[:0], p.all...) }
