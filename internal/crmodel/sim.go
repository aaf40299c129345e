package crmodel

import (
	"fmt"
	"math"

	"pckpt/internal/cluster"
	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/oci"
	"pckpt/internal/pckpt"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/sim"
	"pckpt/internal/stats"
	"pckpt/internal/trace"
)

// appSim is the state of one simulation run: a single application process
// executing compute/checkpoint cycles on the DES, an injector process
// delivering the failure/prediction stream, and the strategy of the
// configured C/R model (internal/policy) deciding every proactive
// reaction against the shared lifecycle state machine.
type appSim struct {
	cfg    Config
	pol    policy.Policy
	env    *sim.Env
	app    *sim.Proc
	stream failure.EventSource
	est    *failure.RateEstimator
	cl     *cluster.Cluster
	// inj is the degraded-platform fault plan (nil = perfect platform;
	// every hook on nil is a no-op).
	inj *faultinject.Injector

	// plat holds the precomputed platform quantities (seconds / GB),
	// derived once by internal/platform; sigma is Eq. (2)'s σ gated on
	// the model's LM capability (0 for B/M1/P1).
	plat  platform.Derived
	sigma float64

	// Dynamic state. The C/R lifecycle (fail epochs, drains, episodes,
	// migrations, prediction/mitigation ledgers) lives in st; only the
	// application-process state is tier-local.
	progress float64 // completed computation, seconds
	curOCI   float64
	st       *policy.State

	// Event plumbing: the injector appends, the app drains on interrupt.
	pending      []failure.Event
	safeguarding bool // M1 safeguard in flight
	// vulnBuf is the reused episode-width scratch buffer (metered runs
	// only): cluster.AppendVulnerable fills it without allocating.
	vulnBuf []int

	met pckpt.RunMetrics
	res stats.RunResult
}

// trace emits a timeline event when tracing is enabled.
func (a *appSim) trace(kind trace.Kind, node int, detail string) {
	if a.cfg.Trace == nil {
		return
	}
	a.cfg.Trace.Record(trace.Event{
		T:        a.env.Now(),
		Kind:     kind,
		Node:     node,
		Progress: a.progress,
		Detail:   detail,
	})
}

// Simulate executes one run and returns its accounting. Deterministic in
// (cfg, seed).
func Simulate(cfg Config, seed uint64) stats.RunResult {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	plat := cfg.Derive()
	a := &appSim{
		cfg:   cfg,
		pol:   policy.For(cfg.Model),
		env:   sim.NewEnv(),
		est:   failure.NewRateEstimator(cfg.System.JobFailureRate(cfg.App.Nodes)),
		cl:    cluster.New(cfg.App.Nodes, cfg.SpareLimit()),
		plat:  plat,
		sigma: cfg.Model.Sigma(plat),
		st:    policy.NewState(),
	}
	a.met = pckpt.NewRunMetrics(cfg.Metrics, cfg.Model)
	if cfg.Metrics != nil {
		a.met.ObserveCluster(a.cl, a.env.Now)
	}
	a.stream, a.inj = cfg.Sources(seed, cfg.Metrics)
	// A run that stops making progress (however it got there) must fail
	// fast with a diagnostic, not hang a sweep.
	a.env.SetWatchdog(sim.RunEventBudget, 0)

	a.app = a.env.Spawn("app", a.run)
	a.env.Spawn("injector", a.inject)
	a.env.RunAll()
	a.env.Release()
	return a.res
}

// refreshOCI re-derives the checkpoint interval from the current failure
// rate estimate, per Eq. (1) (σ=0) or Eq. (2).
func (a *appSim) refreshOCI() {
	rate := a.est.Rate(a.env.Now())
	a.curOCI = oci.FromJobRate(a.plat.BBWrite, rate, a.sigma)
}

// run is the application process: compute OCI seconds, checkpoint to BB,
// repeat until the required computation completes.
func (a *appSim) run(p *sim.Proc) {
	for a.progress < a.plat.ComputeSeconds && !a.res.Truncated {
		a.computeChunk(p)
		if a.progress >= a.plat.ComputeSeconds || a.res.Truncated {
			break
		}
		a.bbCheckpoint(p)
	}
	a.res.WallSeconds = a.env.Now()
	if a.res.Truncated {
		a.trace(trace.Truncated, -1, "spare pool exhausted")
		return
	}
	a.trace(trace.Complete, -1, "")
}

// computeChunk advances the application by one checkpoint interval,
// absorbing interrupts (failures roll progress back; proactive actions
// block inside the handlers).
func (a *appSim) computeChunk(p *sim.Proc) {
	a.refreshOCI()
	target := math.Min(a.progress+a.curOCI, a.plat.ComputeSeconds)
	// Guard the Sprintf, not just the Record: the hot path must not
	// format (or allocate) when tracing is off.
	if a.cfg.Trace != nil {
		a.trace(trace.CycleStart, -1, fmt.Sprintf("interval=%.0fs", target-a.progress))
	}
	// The float sums can stall a hair short of the target once simulated
	// time can no longer resolve the residual (the measured wait recovers
	// less than the requested delay at large absolute times); treat
	// anything below a microsecond as done and snap, as the node-granular
	// tier does. Without the snap, a rollback that lands progress just
	// short of ComputeSeconds livelocks the run: compute 0s, checkpoint,
	// forever.
	for target-a.progress > 1e-6 {
		start := a.env.Now()
		err := p.Wait(target - a.progress)
		a.progress += a.env.Now() - start
		if err == nil {
			break
		}
		a.handleEvents(p)
		if a.res.Truncated {
			return
		}
		if a.st.TakeRescheduled() {
			// A proactive action committed a full checkpoint; re-base
			// the periodic schedule on the fresh interval (the paper's
			// adaptive checkpoint schedule).
			a.refreshOCI()
			target = math.Min(a.progress+a.curOCI, a.plat.ComputeSeconds)
		}
	}
	a.progress = target
}

// bbCheckpoint performs the synchronous burst-buffer write of a periodic
// checkpoint and launches the asynchronous PFS drain.
func (a *appSim) bbCheckpoint(p *sim.Proc) {
	began := a.env.Now()
	if !a.blockedWait(p, a.plat.BBWrite, &a.res.Overheads.Checkpoint) {
		// A failure voided the write and rolled progress back; resume
		// computing, the next cycle will checkpoint the redone state.
		a.met.BBAborted.Inc()
		return
	}
	a.met.BBWrite.Observe(a.env.Now() - began)
	if a.inj.BBWriteFails() {
		// The write occupied the BBs for its full duration and then
		// failed: nothing committed, no drain; the next periodic cycle
		// checkpoints the (re)computed state.
		a.res.BBWriteFailures++
		a.trace(trace.BBWrite, -1, "write failed (injected)")
		return
	}
	a.res.Checkpoints++
	if a.inj.CorruptCommit() {
		// Silently torn: the job believes this generation is good; a
		// restart that reads it will discover otherwise.
		a.st.MarkCorrupt(a.progress)
	}
	a.trace(trace.BBWrite, -1, "")
	a.cl.RecordBBCheckpointAll(a.progress)
	captured := a.progress
	gen, depth := a.st.BeginDrain()
	a.met.DrainDepth.Set(a.env.Now(), float64(depth))
	a.env.At(a.plat.Drain, func() {
		depth, current := a.st.FinishDrain(gen)
		a.met.DrainDepth.Set(a.env.Now(), float64(depth))
		// The drain completes unless a newer checkpoint superseded it
		// (each BB write restarts the drain of the newest data).
		if current {
			if a.inj.PFSWriteFails() {
				// The drain's PFS write failed: the BB copy stands, but
				// the generation never lands on the PFS.
				a.res.PFSWriteFailures++
				a.trace(trace.DrainDone, -1, "drain failed (injected)")
				return
			}
			a.commitFullPFS(captured)
			a.trace(trace.DrainDone, -1, "")
		}
	})
}

// blockedWait blocks the application for dur seconds, accounting the time
// into bucket and processing any events that interrupt it. It returns
// false if a failure voided the activity before dur fully elapsed, true
// on completion.
func (a *appSim) blockedWait(p *sim.Proc, dur float64, bucket *float64) bool {
	epoch := a.st.Epoch()
	remaining := dur
	for remaining > 0 {
		start := a.env.Now()
		err := p.Wait(remaining)
		elapsed := a.env.Now() - start
		remaining -= elapsed
		*bucket += elapsed
		if err == nil {
			return true
		}
		a.handleEvents(p)
		if a.st.Epoch() != epoch {
			return false
		}
	}
	return true
}

// handleEvents drains the pending queue. A truncated run stops draining:
// the job is dead, the remaining events go nowhere.
func (a *appSim) handleEvents(p *sim.Proc) {
	for len(a.pending) > 0 && !a.res.Truncated {
		ev := a.pending[0]
		a.pending = a.pending[1:]
		switch ev.Kind {
		case failure.KindPrediction, failure.KindSpurious:
			a.onPrediction(p, ev)
		case failure.KindFailure:
			a.onFailure(p, ev)
		}
	}
}

// onPrediction records the prediction, marks the node vulnerable, and
// executes whatever proactive action the model's strategy decides.
func (a *appSim) onPrediction(p *sim.Proc, ev failure.Event) {
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
		// passed without a newer prediction superseding it (spurious
		// predictions, and predictions the model takes no action on,
		// would otherwise pin the node vulnerable forever).
		failAt := ev.FailTime
		node := ev.Node
		a.env.At(math.Max(failAt-a.env.Now(), 0), func() {
			n := a.cl.Node(node)
			if n.State == cluster.Vulnerable && n.PredictedFailAt == failAt {
				a.cl.MarkHealthy(node)
			}
		})
	}
	switch a.pol.OnPrediction(a.st, ev.Node, ev.Lead, a.plat.Theta) {
	case policy.ActJoinEpisode:
		// Phase 1 in progress: the new vulnerable node joins the
		// node-local priority queue (lower lead = higher priority).
		a.st.Episode().Q.Push(ev.FailTime, ev)
	case policy.ActMigrate:
		a.startMigration(ev)
	case policy.ActStartEpisode:
		a.pckptEpisode(p, ev)
	case policy.ActSafeguard:
		a.safeguard(p)
	}
}

// startMigration begins a live migration. The application keeps running;
// completion is a scheduled callback. Lead ≥ θ guarantees completion
// before the failure unless a p-ckpt episode aborts the migration first.
func (a *appSim) startMigration(ev failure.Event) {
	m := a.st.StartMigration(ev)
	if a.cfg.Trace != nil {
		a.trace(trace.MigrationStart, ev.Node, fmt.Sprintf("theta=%.1fs", a.plat.Theta))
	}
	a.cl.MarkMigrating(ev.Node)
	a.env.At(a.plat.Theta, func() {
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
	})
}

// pckptEpisode runs one coordinated prioritized checkpoint: phase 1
// serves vulnerable nodes serially by lead-time priority with uncontended
// PFS access; phase 2 commits the remaining nodes at aggregate bandwidth.
// The application is blocked throughout (healthy nodes wait). A failure
// during the episode abandons the remainder.
func (a *appSim) pckptEpisode(p *sim.Proc, first failure.Event) {
	a.res.ProactiveCkpts++
	a.trace(trace.EpisodeStart, first.Node, "")
	epBegin := a.env.Now()
	ep := a.st.BeginEpisode(a.progress)
	defer a.st.EndEpisode()
	ep.Q.Push(first.FailTime, first)
	// A p-ckpt request supersedes in-flight migrations (Fig. 5): abort
	// them and requeue their nodes as vulnerable.
	a.st.AbortMigrations(func(ev failure.Event) {
		a.res.AbortedMigrations++
		a.trace(trace.MigrationAborted, ev.Node, "superseded by p-ckpt")
		if a.cl.Node(ev.Node).State == cluster.Migrating {
			a.cl.AbortMigration(ev.Node, ev.FailTime)
		}
		ep.Q.Push(ev.FailTime, ev)
	})
	if a.cfg.Metrics != nil {
		a.vulnBuf = a.cl.AppendVulnerable(a.vulnBuf[:0])
		a.met.EpisodeWidth.Observe(float64(len(a.vulnBuf)))
	}
	for ep.Q.Len() > 0 && !ep.Abandoned {
		_, ev := ep.Q.Pop()
		if !a.blockedWait(p, a.plat.SingleNodePFSWrite, &a.res.Overheads.Checkpoint) {
			break
		}
		if a.inj.PFSWriteFails() {
			// The vulnerable node's prioritized write tore. If the
			// remaining lead time still covers another attempt, the node
			// re-enters the lead-time priority queue; otherwise its
			// prediction goes unserved.
			a.res.PFSWriteFailures++
			if ev.Kind == failure.KindPrediction && a.env.Now()+a.plat.SingleNodePFSWrite <= ev.FailTime {
				ep.Q.Push(ev.FailTime, ev)
			}
			continue
		}
		ep.Committed++
		a.met.CommitLat.Observe(a.env.Now() - epBegin)
		a.trace(trace.VulnerableCommit, ev.Node, "")
		a.cl.RecordPFSCheckpoint(ev.Node, ep.StartProgress)
		if a.cl.Node(ev.Node).State == cluster.Vulnerable {
			a.cl.MarkHealthy(ev.Node)
		}
		if ev.Kind == failure.KindPrediction && a.env.Now() <= ev.FailTime {
			// The vulnerable node's state reached the PFS before its
			// failure: the failure is mitigated.
			a.st.Mitigate(ev.ID, ep.StartProgress)
			a.met.LeadConsumed.Observe(a.env.Now() - (ev.FailTime - ev.Lead))
			a.met.LeadMargin.Observe(ev.FailTime - a.env.Now())
		}
	}
	if ep.Abandoned {
		a.met.EpisodesAbandoned.Inc()
		return
	}
	// Phase 2: pfs-commit broadcast; healthy nodes write together.
	healthy := a.plat.Nodes - ep.Committed
	if healthy > 0 {
		tr := a.cfg.IO.PFSWriteTransfer(healthy, a.plat.PerNodeGB)
		if !a.blockedWait(p, tr.Seconds, &a.res.Overheads.Checkpoint) {
			a.met.EpisodesAbandoned.Inc()
			return
		}
		a.met.PFSGBs.Observe(tr.GBs)
	}
	if a.inj.PFSWriteFails() {
		// The phase-2 collective write failed: the episode's full
		// checkpoint never commits (phase-1 mitigations stand — those
		// nodes' states did reach the PFS).
		a.res.PFSWriteFailures++
	} else {
		a.commitFullPFS(ep.StartProgress)
		if a.inj.CorruptCommit() {
			a.st.MarkCorrupt(ep.StartProgress)
		}
		a.st.MarkRescheduled()
	}
	a.met.EpisodeDur.Observe(a.env.Now() - epBegin)
	if a.cfg.Trace != nil {
		a.trace(trace.EpisodeEnd, -1, fmt.Sprintf("blocked=%.1fs committed=%d", a.env.Now()-epBegin, ep.Committed))
	}
}

// safeguard runs M1's just-in-time checkpoint: every node writes to the
// PFS synchronously, racing the predicted failure.
func (a *appSim) safeguard(p *sim.Proc) {
	if a.safeguarding {
		return // the in-flight safeguard covers this prediction too
	}
	a.safeguarding = true
	defer func() { a.safeguarding = false }()
	a.res.ProactiveCkpts++
	a.trace(trace.SafeguardStart, -1, "")
	began := a.env.Now()
	startProgress := a.progress
	if !a.blockedWait(p, a.plat.FullPFSWrite, &a.res.Overheads.Checkpoint) {
		return // the failure won the race (or rolled us back)
	}
	if a.inj.PFSWriteFails() {
		// The safeguard's collective write failed after blocking the
		// application for its full duration: nothing committed, so the
		// pending predictions stay unmitigated.
		a.res.PFSWriteFailures++
		a.trace(trace.SafeguardEnd, -1, "write failed (injected)")
		return
	}
	a.commitFullPFS(startProgress)
	if a.inj.CorruptCommit() {
		a.st.MarkCorrupt(startProgress)
	}
	a.st.MarkRescheduled()
	a.trace(trace.SafeguardEnd, -1, "")
	now := a.env.Now()
	a.met.SafeguardDur.Observe(now - began)
	if a.plat.FullPFSWrite > 0 {
		a.met.PFSGBs.Observe(float64(a.plat.Nodes) * a.plat.PerNodeGB / a.plat.FullPFSWrite)
	}
	a.st.EachPrediction(func(id int64, pi policy.Prediction) {
		if pi.FailAt >= now {
			// The safeguard committed everyone's state before this
			// pending failure: mitigated.
			a.st.Mitigate(id, startProgress)
			a.met.LeadConsumed.Observe(now - (pi.FailAt - pi.Lead))
			a.met.LeadMargin.Observe(pi.FailAt - now)
		}
	})
}

// commitFullPFS records a full-application checkpoint at progress q as
// resident on the PFS.
func (a *appSim) commitFullPFS(q float64) {
	if a.st.CommitPFS(q) {
		a.cl.RecordPFSCheckpointAll(q)
	}
}

// onFailure handles a failure striking node ev.Node: classify it
// (mitigated by a proactive checkpoint, or unhandled), roll progress
// back, perform recovery, replace the node.
func (a *appSim) onFailure(p *sim.Proc, ev failure.Event) {
	a.res.Failures++
	if ev.Lead > 0 {
		a.res.Predicted++
	}
	out := a.pol.OnFailure(a.st, ev)
	if out.MigrationAborted {
		a.res.AbortedMigrations++
	}
	a.cl.Fail(ev.Node)
	if out.Mitigated {
		a.res.Mitigated++
	}
	// Best restart point: the proactive commit that mitigated this
	// failure, or the newest consistent periodic checkpoint — whichever
	// is fresher. On a degraded platform, candidates discovered corrupt
	// at restore time are discarded in favour of older generations.
	q, fullPFSRestore, corrupted := a.st.ResolveRestart(a.cl.RecoverableProgress(ev.Node), out)
	if corrupted > 0 {
		a.res.CorruptRestarts += corrupted
		a.inj.ObserveCorruptRestarts(corrupted)
		// The checkpoint records claiming the discarded generations are
		// lies now; no later restart may try them again.
		a.cl.ClampCheckpoints(q)
	}
	recovery := a.plat.RecoveryBB
	if fullPFSRestore {
		// Recovering from a proactive checkpoint pulls every node's
		// state from the PFS (Sec. II), which is what makes recovery
		// visible in P1's overhead breakdown.
		recovery = a.plat.RecoveryPFS
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
		// at the current time — no recovery is charged; the unwinding
		// frames (recovery retries of earlier failures included) observe
		// the marker and stop.
		a.res.Truncated = true
		return
	}
	// Recovery: restart as many times as failures force us to. On a
	// degraded platform the restore can stretch further: each corrupt
	// candidate cost a torn read of full restore length before the clean
	// generation was found; a cascade (secondary failure inside the
	// window) voids the partial restore; and a failed restart attempt
	// charges deterministic doubling backoff before the retry.
	began := a.env.Now()
	for i := 0; i < corrupted; i++ {
		for !a.blockedWait(p, recovery, &a.res.Overheads.Recovery) {
			if a.res.Truncated {
				return
			}
		}
	}
	attempt, cascades := 0, 0
	for {
		if strike, frac := a.inj.CascadeRecovery(); strike && cascades < faultinject.MaxCascadeDepth {
			cascades++
			a.res.Cascades++
			for !a.blockedWait(p, frac*recovery, &a.res.Overheads.Recovery) {
				if a.res.Truncated {
					return
				}
			}
			continue
		}
		for !a.blockedWait(p, recovery, &a.res.Overheads.Recovery) {
			if a.res.Truncated {
				return
			}
		}
		fail, backoff := a.inj.RestartAttemptFails(attempt)
		if !fail {
			break
		}
		attempt++
		a.res.RestartRetries++
		if backoff > 0 {
			for !a.blockedWait(p, backoff, &a.res.Overheads.Recovery) {
				if a.res.Truncated {
					return
				}
			}
		}
	}
	if cascades > 0 {
		a.inj.ObserveCascadeDepth(cascades)
	}
	a.met.RecoveryDur.Observe(a.env.Now() - began)
	a.trace(trace.RecoveryDone, ev.Node, "")
}

// inject is the injector process: it delivers the event stream to the
// application, skipping failures avoided by completed migrations.
func (a *appSim) inject(p *sim.Proc) {
	for {
		ev := a.stream.Next()
		if !a.app.Alive() {
			return
		}
		if dt := ev.Time - a.env.Now(); dt > 0 {
			if err := p.Wait(dt); err != nil {
				panic(fmt.Sprintf("crmodel: injector interrupted: %v", err))
			}
		}
		if !a.app.Alive() {
			return
		}
		switch ev.Kind {
		case failure.KindFailure:
			if a.st.ConsumeAvoided(ev.ID) {
				continue // live migration emptied the node in time
			}
			a.est.Observe()
		default:
			if !a.cfg.Model.UsesPrediction() {
				continue // model B ignores the predictor entirely
			}
		}
		a.pending = append(a.pending, ev)
		a.app.Interrupt("failure-stream")
	}
}
