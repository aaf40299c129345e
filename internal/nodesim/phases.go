package nodesim

import (
	"math"

	"pckpt/internal/failure"
	"pckpt/internal/oci"
	"pckpt/internal/policy"
	"pckpt/internal/sim"
)

// This file is the coordinator's phase logic: the BSP main loop, the
// compute and BB-write phases, and the proactive handshakes (predictions,
// migrations, p-ckpt episodes, the prioritized phase-1 commit). The
// failure path is in fault.go.

// coordinate is the coordinator process: the BSP main loop.
func (c *cluster) coordinate(p *sim.Proc) {
	for c.progress < c.plat.ComputeSeconds {
		c.computePhase(p)
		if c.progress >= c.plat.ComputeSeconds {
			break
		}
		c.bbPhase(p)
	}
	c.res.WallSeconds = c.env.Now()
	for _, n := range c.nodes {
		c.post(n, command{kind: cmdExit})
	}
}

// computePhase advances all nodes by one checkpoint interval. Progress
// accounting runs through bankCompute: the segment in flight is banked
// either here (normal completion) or by a pausing handler (episode,
// failure) before it mutates progress.
func (c *cluster) computePhase(p *sim.Proc) {
	rate := c.est.Rate(c.env.Now())
	interval := oci.FromJobRate(c.plat.BBWrite, rate, c.sigma)
	target := math.Min(c.progress+interval, c.plat.ComputeSeconds)
	// The banked float sums can stall a hair short of the target while
	// simulated time can no longer resolve the residual; treat anything
	// below a microsecond as done and snap.
	for target-c.progress > 1e-6 {
		c.computing = true
		c.computeStart = c.env.Now()
		c.pausedInPhase = 0
		for _, n := range c.nodes {
			if !n.busy {
				c.post(n, command{kind: cmdCompute, dur: target - c.progress})
			}
		}
		c.awaitPhase(p)
		c.bankCompute()
		if c.st.TakeRescheduled() {
			// A proactive action committed a full checkpoint: re-base the
			// periodic schedule on a fresh interval from here.
			rate = c.est.Rate(c.env.Now())
			interval = oci.FromJobRate(c.plat.BBWrite, rate, c.sigma)
			target = math.Min(c.progress+interval, c.plat.ComputeSeconds)
		}
	}
	c.progress = target
}

// bbPhase stages the periodic checkpoint on every burst buffer. Episodes
// interleaving with the write pause it; the remaining write time resumes
// afterwards (handler pauses are excluded via pausedInPhase). A failure
// voids the write entirely.
func (c *cluster) bbPhase(p *sim.Proc) {
	began := c.env.Now()
	remaining := c.plat.BBWrite
	for remaining > 1e-9 {
		start := c.env.Now()
		c.pausedInPhase = 0
		for _, n := range c.nodes {
			if !n.busy {
				c.post(n, command{kind: cmdBBWrite, dur: remaining})
			}
		}
		ok := c.awaitPhase(p)
		worked := (c.env.Now() - start) - c.pausedInPhase
		c.res.Overheads.Checkpoint += worked
		if !ok {
			return // failure voided the write; partial time stays charged
		}
		remaining -= worked
	}
	c.met.bbWrite.Observe(c.env.Now() - began)
	if c.inj.BBWriteFails() {
		// The write occupied every BB for its full duration and then
		// failed: nothing committed, no drain; the next periodic cycle
		// checkpoints the (re)computed state.
		c.res.BBWriteFailures++
		return
	}
	c.res.Checkpoints++
	if c.inj.CorruptCommit() {
		// Silently torn; discovered only when a restart reads it.
		c.st.MarkCorrupt(c.progress)
	}
	captured := c.progress
	gen, depth := c.st.BeginDrain()
	c.met.drainDepth.Set(c.env.Now(), float64(depth))
	c.env.At(c.plat.Drain, func() {
		depth, current := c.st.FinishDrain(gen)
		c.met.drainDepth.Set(c.env.Now(), float64(depth))
		if current {
			if c.inj.PFSWriteFails() {
				// The drain's PFS write failed: the BB copy stands, but
				// the generation never lands on the PFS.
				c.res.PFSWriteFailures++
				return
			}
			_ = c.st.CommitPFS(captured) // statistical tier: no branch on placement advance
		}
	})
}

// handleEvents drains injected events (the coordinator holds the token).
func (c *cluster) handleEvents(p *sim.Proc) {
	for len(c.pending) > 0 {
		ev := c.pending[0]
		c.pending = c.pending[1:]
		switch ev.Kind {
		case failure.KindPrediction, failure.KindSpurious:
			c.onPrediction(p, ev)
		case failure.KindFailure:
			c.onFailure(p, ev)
		}
	}
}

// onPrediction records the prediction and executes whatever proactive
// action the policy's strategy decides.
func (c *cluster) onPrediction(p *sim.Proc, ev failure.Event) {
	if ev.Kind == failure.KindPrediction {
		c.st.RecordPrediction(ev.ID, policy.Prediction{Node: ev.Node, FailAt: ev.FailTime, Lead: ev.Lead})
	}
	switch c.pol.OnPrediction(c.st, ev.Node, ev.Lead, c.plat.Theta) {
	case policy.ActJoinEpisode:
		if n := c.nodes[ev.Node]; !n.busy {
			// Joins phase 1: the node heads straight for the lane.
			c.post(n, command{kind: cmdVulnWrite, deadline: ev.FailTime, ev: ev})
		}
	case policy.ActMigrate:
		c.startMigration(ev)
	case policy.ActStartEpisode:
		c.runEpisode(p, ev)
	}
}

// startMigration begins a background live migration.
func (c *cluster) startMigration(ev failure.Event) {
	m := c.st.StartMigration(ev)
	c.env.At(c.plat.Theta, func() {
		if !c.st.FinishMigration(m) {
			return
		}
		c.res.Migrations++
		c.res.Overheads.Checkpoint += c.cfg.LM.DilationSeconds(c.plat.PerNodeGB)
		if ev.Kind == failure.KindPrediction {
			c.st.MarkAvoided(ev.ID)
			c.res.Avoided++
			c.st.ForgetPrediction(ev.ID)
		}
	})
}

// vulnWrite is the phase-1 prioritized commit: acquire the PFS lane in
// lead-time order, write uncontended, record mitigation. Entry time is
// the post time (posting triggers the node in the same sim instant), so
// the lane-acquire span is the protocol's coordination wait and the full
// span is the per-node commit latency.
func (c *cluster) vulnWrite(p *sim.Proc, n *node, cmd command) {
	posted := c.env.Now()
	for {
		if err := c.lane.Acquire(p, cmd.deadline); err != nil {
			return // episode abandoned while queued
		}
		c.met.laneWait.Observe(c.env.Now() - posted)
		err := p.Wait(c.plat.SingleNodePFSWrite)
		c.lane.Release()
		if err != nil {
			return // aborted mid-write
		}
		if c.inj.PFSWriteFails() {
			// The prioritized write tore. If the remaining lead time
			// covers another attempt, re-enter the lane queue (same
			// deadline, so the same lead-time priority); otherwise the
			// prediction goes unserved.
			c.res.PFSWriteFailures++
			if c.env.Now()+c.plat.SingleNodePFSWrite <= cmd.deadline {
				continue
			}
			return
		}
		break
	}
	c.met.commitLat.Observe(c.env.Now() - posted)
	ep := c.st.Episode()
	if ep != nil {
		ep.Committed++
	}
	if cmd.ev.Kind == failure.KindPrediction && c.env.Now() <= cmd.ev.FailTime {
		startProgress := c.progress
		if ep != nil {
			startProgress = ep.StartProgress
		}
		c.st.Mitigate(cmd.ev.ID, startProgress)
	}
}

// runEpisode executes a p-ckpt episode at node granularity: the
// vulnerable nodes race to the priority lane while every other node
// waits; then the healthy nodes bulk-commit.
//
// The coordinator reaches here from inside awaitPhase of a voided outer
// phase — the outer phase's nodes were NOT aborted, so first abort them
// (healthy nodes enter the waiting state, per the protocol).
func (c *cluster) runEpisode(p *sim.Proc, first failure.Event) {
	c.res.ProactiveCkpts++
	// Pause the world: bank the compute in flight, then abort whatever
	// the nodes were doing. Their reports drain into the current
	// outstanding count, which the episode waits out.
	c.bankCompute()
	c.abortBusy()
	ep := c.st.BeginEpisode(c.progress)
	defer c.st.EndEpisode()
	// Abort in-flight migrations; their nodes join phase 1 (Fig. 5).
	epochStart := c.st.Epoch()
	pendingVuln := []failure.Event{first}
	c.st.AbortMigrations(func(ev failure.Event) {
		c.res.AbortedMigrations++
		pendingVuln = append(pendingVuln, ev)
	})
	start := c.env.Now()
	pausedBefore := c.pausedInPhase
	// selfSpan charges the episode's own blocked time, excluding nested
	// handler pauses (a recovery inside the episode charges Recovery).
	charge := func() {
		nested := c.pausedInPhase - pausedBefore
		selfSpan := (c.env.Now() - start) - nested
		c.res.Overheads.Checkpoint += selfSpan
		c.pausedInPhase = pausedBefore + nested + selfSpan
	}
	// Wait for the aborted outer phase to drain before reusing nodes.
	if !c.awaitPhase(p) {
		charge()
		c.met.episodesAbandoned.Inc()
		return // a failure landed even before phase 1 began
	}
	for _, ev := range pendingVuln {
		if c.nodes[ev.Node].busy {
			continue // already queued via a duplicate prediction
		}
		c.post(c.nodes[ev.Node], command{kind: cmdVulnWrite, deadline: ev.FailTime, ev: ev})
	}
	if !c.awaitPhase(p) || ep.Abandoned {
		charge()
		c.met.episodesAbandoned.Inc()
		return
	}
	// Phase 2: pfs-commit broadcast; every remaining node writes.
	healthy := len(c.nodes) - ep.Committed
	if healthy > 0 {
		tr := c.cfg.IO.PFSWriteTransfer(healthy, c.plat.PerNodeGB)
		for _, n := range c.nodes {
			if !n.busy {
				c.post(n, command{kind: cmdBulkWrite, dur: tr.Seconds})
			}
		}
		if !c.awaitPhase(p) {
			charge()
			c.met.episodesAbandoned.Inc()
			return
		}
		c.met.pfsGBs.Observe(tr.GBs)
	}
	charge()
	c.met.episodeDur.Observe(c.env.Now() - start)
	if c.st.Epoch() == epochStart {
		if c.inj.PFSWriteFails() {
			// The phase-2 collective write failed: the episode's full
			// checkpoint never commits (phase-1 mitigations stand —
			// those nodes' states did reach the PFS).
			c.res.PFSWriteFailures++
		} else {
			_ = c.st.CommitPFS(ep.StartProgress) // statistical tier: no branch on placement advance
			if c.inj.CorruptCommit() {
				c.st.MarkCorrupt(ep.StartProgress)
			}
			c.st.MarkRescheduled()
		}
	}
}
