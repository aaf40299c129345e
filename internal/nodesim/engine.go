package nodesim

import (
	"fmt"

	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/sim"
	"pckpt/internal/stats"
)

// This file is the coordinator↔node machinery: the command/report
// protocol, the node execution loop, phase drain/abort, and the failure
// injector. The phases that ride on it live in phases.go.

// command kinds issued by the coordinator.
type cmdKind uint8

const (
	cmdCompute cmdKind = iota
	cmdBBWrite
	cmdVulnWrite
	cmdBulkWrite
	cmdRecover
	cmdExit
)

type command struct {
	kind cmdKind
	// dur is the work duration for timed commands; vulnWrite derives its
	// own duration and uses deadline for lane priority.
	dur      float64
	deadline float64
	// ev ties a vulnWrite back to the prediction that caused it.
	ev failure.Event
}

// node is one compute node's process-side state.
type node struct {
	id   int
	proc *sim.Proc
	// cmd is the pending command; ready is pulsed (not latched) when one
	// is posted, so one event serves the node for the whole run.
	cmd   command
	ready *sim.Event
	busy  bool
}

// cluster is the shared state, mutated lock-step.
type cluster struct {
	cfg   Config
	pol   policy.Policy
	env   *sim.Env
	nodes []*node
	coord *sim.Proc
	est   *failure.RateEstimator
	// inj is the degraded-platform fault plan (nil = perfect platform;
	// every hook on nil is a no-op).
	inj *faultinject.Injector

	// plat holds the precomputed platform quantities, derived once by
	// internal/platform; sigma is Eq. (2)'s σ gated on the policy's LM
	// capability (0 for base and p-ckpt).
	plat  platform.Derived
	sigma float64

	// progress is the BSP global progress; checkpoint placement and the
	// rest of the C/R lifecycle (fail epochs, drains, episodes,
	// migrations, ledgers) live in st.
	progress float64
	st       *policy.State

	// Lane is the prioritized PFS path of phase 1.
	lane *sim.Resource

	// Coordinator bookkeeping. allDone is a single pulsed event for every
	// phase drain of the run; the coordinator is its only possible waiter.
	outstanding int
	allDone     *sim.Event
	// phaseAborts counts node commands cut short by a phase abort — the
	// explicit other half of a timed command's Wait, kept as engine-side
	// accounting (deliberately not part of stats.RunResult).
	phaseAborts int
	pending     []failure.Event
	// computing/computeStart bank partial compute progress: pausing
	// handlers (episodes, failures) call bankCompute so rollbacks and
	// pauses never miscount computation.
	computing    bool
	computeStart float64
	// pausedInPhase accumulates handler pauses inside the current
	// coordinator phase, so the BB phase can compute its true remaining
	// write time after an episode interleaved with it.
	pausedInPhase float64

	met nodeMetrics
	res stats.RunResult
}

// nodeLoop executes commands until told to exit.
func (c *cluster) nodeLoop(p *sim.Proc, n *node) {
	for {
		for !n.busy {
			if err := p.WaitEvent(n.ready); err != nil {
				panic(fmt.Sprintf("nodesim: idle node interrupted: %v", err))
			}
		}
		cmd := n.cmd
		switch cmd.kind {
		case cmdExit:
			n.busy = false
			return
		case cmdVulnWrite:
			c.vulnWrite(p, n, cmd)
		default:
			// Timed work, abortable: an interrupt means the coordinator
			// voided the phase. The abort still reports — the coordinator
			// is waiting for the phase to drain — but takes the explicit
			// branch so an expired wait and a voided one are never
			// conflated.
			if cmd.dur > 0 {
				if err := p.Wait(cmd.dur); err != nil {
					c.phaseAborts++
					c.report(n)
					continue
				}
			}
		}
		c.report(n)
	}
}

// post issues a command to a node and counts it outstanding.
func (c *cluster) post(n *node, cmd command) {
	if n.busy {
		panic(fmt.Sprintf("nodesim: node %d already busy", n.id))
	}
	n.cmd = cmd
	n.busy = true
	c.outstanding++
	n.ready.Pulse()
}

// report marks a node's command finished and wakes the coordinator when
// the phase drains.
func (c *cluster) report(n *node) {
	n.busy = false
	c.outstanding--
	// Wake the coordinator only if it is actually parked on the drain
	// event; with zero waiters it is off handling an injected failure and
	// will re-check outstanding itself.
	if c.outstanding == 0 && c.allDone.Waiters() > 0 {
		c.allDone.Pulse()
	}
}

// abortBusy interrupts every node still executing a command.
func (c *cluster) abortBusy() {
	for _, n := range c.nodes {
		if n.busy {
			n.proc.Interrupt("phase aborted")
		}
	}
}

// awaitPhase blocks the coordinator until every outstanding command has
// reported, handling injected events as they arrive. It returns false if
// a failure voided the phase (the caller decides what that means).
func (c *cluster) awaitPhase(p *sim.Proc) bool {
	epoch := c.st.Epoch()
	for c.outstanding > 0 {
		if err := p.WaitEvent(c.allDone); err != nil {
			c.handleEvents(p)
			if c.st.Epoch() != epoch {
				return false
			}
		}
	}
	return c.st.Epoch() == epoch
}

// bankCompute folds the in-flight compute segment into progress; pausing
// handlers call it before they stop the world.
func (c *cluster) bankCompute() {
	if !c.computing {
		return
	}
	c.progress += c.env.Now() - c.computeStart
	c.computing = false
}

// inject delivers the failure stream to the coordinator.
func (c *cluster) inject(p *sim.Proc, stream failure.EventSource) {
	for {
		ev := stream.Next()
		if !c.coord.Alive() {
			return
		}
		if dt := ev.Time - c.env.Now(); dt > 0 {
			if err := p.Wait(dt); err != nil {
				panic(fmt.Sprintf("nodesim: injector interrupted: %v", err))
			}
		}
		if !c.coord.Alive() {
			return
		}
		switch ev.Kind {
		case failure.KindFailure:
			if c.st.ConsumeAvoided(ev.ID) {
				continue
			}
			c.est.Observe()
		default:
			if !c.cfg.Policy.UsesPrediction() {
				continue
			}
		}
		c.pending = append(c.pending, ev)
		c.coord.Interrupt("failure-stream")
	}
}
