package stepsim

import (
	"sync"

	"pckpt/internal/cluster"
	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/pckpt"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/sim"
	"pckpt/internal/stats"
)

// appSim is one step-tier run record. It mirrors crmodel.appSim field
// for field, but the application "process" is a continuation chain of
// engine callbacks instead of a goroutine: every blocking call site of
// the process-based tier appears here as a wait with an explicit
// continuation, scheduled at the same logical point in the same
// statement order — which is what makes a run bit-identical to the app
// tier on the shared failure stream.
//
// Records are recycled through recordPool. Everything a run writes is
// either in appRun, which every start zeroes whole, or in storage the
// start resets in place: the node table, the lifecycle state, the
// sources, the pending queue, the flow lists and the frame free lists.
// The method values the event path schedules are bound once per record.
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
	cfg *Config // the cell's
	pol policy.Policy
	eng *sim.Engine
	// stream and inj point into the record's platform.Inputs.
	stream failure.EventSource
	est    failure.RateEstimator
	inj    *faultinject.Injector

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

	plat  platform.Derived
	sigma float64

	progress float64
	curOCI   float64
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
	// lives in fields: chunkTarget/chunkStart for the compute interval,
	// bbBegan for the BB write, injectEv for the event the parked
	// injector delivers next at injectAlarm; sg* for M1's safeguard
	// (safeguarding is its in-flight flag) and ep* for the live p-ckpt
	// episode (episodes never overlap).
	chunkTarget, chunkStart float64
	bbBegan                 float64
	injectEv                failure.Event
	injectAlarm             sim.Alarm

	safeguarding          bool
	sgK                   func()
	sgBegan, sgStart, sgT float64

	ep      *policy.Episode
	epK     func()
	epBegin float64
	epEv    failure.Event
	epGBs   float64

	met pckpt.RunMetrics
	res stats.RunResult
}

// boundFns are the record's method values, bound once when the record
// is made, so scheduling or parking on one allocates nothing.
type boundFns struct {
	start, injectStart, wake, injectResume, interrupted func(local float64)
	computeWoke, bbWritten                              func(bool)
	computeResume                                       func()
	sgWritten, epPhase2, epWritten                      func(ok bool)
	sgMitigate                                          func(id int64, p policy.Prediction)
	epAbortMigration                                    func(ev failure.Event)
	observe                                             cluster.Observer
}

// recordPool recycles run records across the runs of a sweep and the
// tenants of a machine; a CHIMERA run's node table has 2272 entries.
var recordPool = sync.Pool{New: func() any { return newRecord() }}

// newRecord makes a record and binds its method values.
func newRecord() *appSim {
	a := new(appSim)
	a.handle.a = a
	a.fn = boundFns{
		start:            a.start,
		injectStart:      a.injectStart,
		wake:             a.wake,
		injectResume:     a.injectResume,
		interrupted:      a.interrupted,
		computeWoke:      a.computeWoke,
		bbWritten:        a.bbWritten,
		computeResume:    a.computeResume,
		sgWritten:        a.safeguardWritten,
		epPhase2:         a.episodePhase2,
		epWritten:        a.episodeWritten,
		sgMitigate:       a.safeguardMitigate,
		epAbortMigration: a.episodeAbortMigration,
		observe:          a.observeCluster,
	}
	return a
}

// reset readies the record for one run of c on eng: appRun is zeroed
// and every kept structure reset in place, in the order crmodel sets a
// run up (the metered series resolve in the same order).
func (a *appSim) reset(c *Cell, eng *sim.Engine, seed uint64, opts AppOptions) {
	a.appRun = appRun{
		cfg: &c.cfg, pol: c.pol, eng: eng, t0: eng.Now(),
		arb: opts.Arbiter, appIdx: opts.AppIndex, onDone: opts.OnDone,
		plat: c.plat, sigma: c.sigma,
	}
	a.runs++
	a.cl.Reset(c.cfg.App.Nodes, c.spares)
	a.est.Reset(c.prior)
	a.st.Reset()
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
	eng.Bind(&a.injectAlarm, "injector", a.fn.injectResume)
	a.met = pckpt.NewRunMetrics(opts.Metrics, c.cfg.Model)
	if opts.Metrics != nil {
		a.cl.SetObserver(a.fn.observe)
	}
	a.stream, a.inj = c.plan.Seed(&a.in, seed, opts.Metrics)
}

// observeCluster is a metered run's cluster observer, stamped with the
// engine clock.
func (a *appSim) observeCluster(int, cluster.State, cluster.State) {
	a.met.CountVulnerable(a.eng.Now(), &a.cl)
}

// clear drops everything the finished run referenced — its cell's
// config, engine, arbiter, completion hook, and every metric handle, the node table's
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
	if a.cfg == nil {
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
