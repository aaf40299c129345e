package crmodel

import (
	"fmt"
	"math"

	"pckpt/internal/appmodel"
	"pckpt/internal/cluster"
	"pckpt/internal/failure"
	"pckpt/internal/policy"
	"pckpt/internal/sim"
	"pckpt/internal/stats"
)

// appSim is one simulation run on the process layer: an application
// process executing compute/checkpoint cycles and an injector process
// delivering the failure/prediction stream. Every transition between
// waits is the shared model's (appmodel.Run); this type keeps only the
// processes, their waits and the pending queue.
type appSim struct {
	appmodel.Run
	env    *sim.Env
	app    *sim.Proc
	stream failure.EventSource
	cl     cluster.Cluster
	st     policy.State

	// Event plumbing: the injector appends, the app drains on interrupt.
	pending []failure.Event
}

// Simulate executes one run and returns its accounting. Deterministic in
// (cfg, seed).
func Simulate(cfg Config, seed uint64) stats.RunResult {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := appmodel.NewSetup(cfg.Model, cfg.Config, cfg.Trace)
	a := &appSim{env: sim.NewEnv()}
	a.Init(&s, &a.cl, &a.st, a.Bind(), cfg.Metrics)
	if cfg.Metrics != nil {
		a.cl.SetObserver(func(int, cluster.State, cluster.State) {
			a.Met.CountVulnerable(a.env.Now(), &a.cl)
		})
	}
	a.stream, a.Inj = cfg.Sources(seed, cfg.Metrics)
	// A run that stops making progress (however it got there) must fail
	// fast with a diagnostic, not hang a sweep.
	a.env.SetWatchdog(sim.RunEventBudget, 0)

	a.app = a.env.Spawn("app", a.run)
	a.env.Spawn("injector", a.inject)
	a.env.RunAll()
	a.env.Release()
	return a.Res
}

// run is the application process: compute OCI seconds, checkpoint to BB,
// repeat until the required computation completes.
func (a *appSim) run(p *sim.Proc) {
	for a.Working() {
		a.computeChunk(p)
		if !a.Working() {
			break
		}
		a.bbCheckpoint(p)
	}
	a.Finished(a.env.Now())
}

// computeChunk advances the application by one checkpoint interval,
// absorbing interrupts (failures roll progress back; proactive actions
// block inside the handlers).
func (a *appSim) computeChunk(p *sim.Proc) {
	a.CycleStart(a.env.Now())
	for d := a.Residual(); d > 0; d = a.Residual() {
		start := a.env.Now()
		err := p.Wait(d)
		a.Progress += a.env.Now() - start
		if err == nil {
			break
		}
		a.handleEvents(p)
		if a.Res.Truncated {
			return
		}
		a.Rebase(a.env.Now())
	}
	a.Progress = a.Target
}

// bbCheckpoint performs the synchronous burst-buffer write of a periodic
// checkpoint and launches the asynchronous PFS drain.
func (a *appSim) bbCheckpoint(p *sim.Proc) {
	began := a.env.Now()
	ok := a.blockedWait(p, a.Plat.BBWrite, &a.Res.Overheads.Checkpoint)
	if d, drain := a.BBWritten(a.env.Now(), began, ok); drain {
		a.env.At(a.Plat.Drain, func() { a.DrainDone(a.env.Now(), d) })
	}
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
	for len(a.pending) > 0 && !a.Res.Truncated {
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

// onPrediction handles a prediction and enacts the model's reaction.
func (a *appSim) onPrediction(p *sim.Proc, ev failure.Event) {
	marked, act := a.Predicted(a.env.Now(), ev)
	if marked {
		node, failAt := ev.Node, ev.FailTime
		a.env.At(math.Max(failAt-a.env.Now(), 0), func() { a.ClearVulnerable(node, failAt) })
	}
	switch act {
	case policy.ActMigrate:
		m := a.MigrationStarted(a.env.Now(), ev)
		a.env.At(a.Plat.Theta, func() { a.MigrationDone(a.env.Now(), m) })
	case policy.ActStartEpisode:
		a.pckptEpisode(p, ev)
	case policy.ActSafeguard:
		if a.SafeguardStarted(a.env.Now()) {
			ok := a.blockedWait(p, a.Plat.FullPFSWrite, &a.Res.Overheads.Checkpoint)
			a.SafeguardWritten(a.env.Now(), ok)
		}
	}
}

// pckptEpisode runs one coordinated prioritized checkpoint, blocking the
// application throughout: phase 1's prioritized writes, one vulnerable
// node at a time, then phase 2's collective write.
func (a *appSim) pckptEpisode(p *sim.Proc, first failure.Event) {
	a.EpisodeOpened(a.env.Now(), first)
	for a.NextVulnerable() {
		if !a.blockedWait(p, a.Plat.SingleNodePFSWrite, &a.Res.Overheads.Checkpoint) {
			break
		}
		a.VulnerableWritten(a.env.Now())
	}
	tr, ok := a.EpisodeServed()
	if !ok {
		return
	}
	if tr.Nodes > 0 && !a.blockedWait(p, tr.Seconds, &a.Res.Overheads.Checkpoint) {
		a.EpisodeAbandoned()
		return
	}
	a.EpisodeCommitted(a.env.Now())
}

// onFailure handles a failure and waits out its recovery: restart as many
// times as failures force us to. On a degraded platform the restore can
// stretch further: each corrupt candidate cost a torn read of full
// restore length before the clean generation was found; a cascade
// (secondary failure inside the window) voids the partial restore; and a
// failed restart attempt charges deterministic doubling backoff before
// the retry.
func (a *appSim) onFailure(p *sim.Proc, ev failure.Event) {
	rc, ok := a.FailureStruck(a.env.Now(), ev)
	if !ok {
		// The unwinding frames (recovery retries of earlier failures
		// included) observe the truncation and stop.
		return
	}
	for i := 0; i < rc.Corrupted; i++ {
		if !a.recoveryWait(p, rc.Seconds) {
			return
		}
	}
	for {
		if frac, struck := a.Cascade(&rc); struck {
			if !a.recoveryWait(p, frac*rc.Seconds) {
				return
			}
			continue
		}
		if !a.recoveryWait(p, rc.Seconds) {
			return
		}
		backoff, failed := a.RestartFailed(&rc)
		if !failed {
			break
		}
		if backoff > 0 && !a.recoveryWait(p, backoff) {
			return
		}
	}
	a.Recovered(a.env.Now(), &rc)
}

// recoveryWait repeats a recovery wait of dur until it completes without
// a voiding failure. It returns false when such a failure truncated the
// run instead.
func (a *appSim) recoveryWait(p *sim.Proc, dur float64) bool {
	for !a.blockedWait(p, dur, &a.Res.Overheads.Recovery) {
		if a.Res.Truncated {
			return false
		}
	}
	return true
}

// inject is the injector process: it delivers the admitted events of the
// stream to the application.
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
		if !a.Admit(ev) {
			continue
		}
		a.pending = append(a.pending, ev)
		a.app.Interrupt("failure-stream")
	}
}
