// Package pckpt implements the paper's core contribution at node
// granularity: the coordinated prioritized checkpoint protocol of
// Sec. VI, including the hybrid variant that prefers live migration and
// falls back to p-ckpt (aborting in-flight migrations) when a prediction
// arrives with too little lead time.
//
// Protocol recap (Fig. 5 of the paper):
//
//   - A node receiving a failure prediction becomes vulnerable. With
//     enough lead time (and the hybrid model enabled) it live-migrates;
//     otherwise it initiates p-ckpt by notifying every node.
//   - Phase 1: vulnerable nodes commit their state to the PFS with
//     prioritized, contention-free access, ordered by lead time to
//     failure (lower lead → higher priority) through a priority queue.
//     Healthy nodes enter the waiting state. Nodes predicted to fail
//     during this phase join the queue.
//   - When every vulnerable node has committed, a pfs-commit broadcast
//     releases the healthy nodes, which then checkpoint to the PFS
//     together (phase 2, contended aggregate bandwidth).
//   - An in-flight live migration is aborted if a new prediction forces
//     the p-ckpt path; the aborted node joins the priority queue.
//
// The package simulates one protocol episode on the discrete-event
// engine with a process per involved node, and reports per-node commit
// times, the phase structure, and a human-readable trace. The
// application-level C/R models (internal/crmodel) price the same
// protocol in closed form; an integration test cross-checks the two.
package pckpt

import (
	"fmt"
	"sort"

	"pckpt/internal/faultinject"
	"pckpt/internal/iomodel"
	"pckpt/internal/lm"
	"pckpt/internal/metrics"
	"pckpt/internal/queue"
	"pckpt/internal/rng"
	"pckpt/internal/sim"
)

// Action is the proactive path a vulnerable node ended up taking.
type Action uint8

const (
	// ActionPckpt: the node committed through the prioritized queue.
	ActionPckpt Action = iota
	// ActionLM: the node live-migrated successfully.
	ActionLM
	// ActionLMAborted: the node's migration was aborted by a p-ckpt
	// request and it committed through the queue instead.
	ActionLMAborted
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionPckpt:
		return "p-ckpt"
	case ActionLM:
		return "live-migration"
	case ActionLMAborted:
		return "lm-aborted→p-ckpt"
	default:
		return fmt.Sprintf("Action(%d)", uint8(a))
	}
}

// Config parameterises a protocol episode.
type Config struct {
	// Nodes is the job's node count.
	Nodes int
	// PerNodeGB is each node's checkpoint footprint.
	PerNodeGB float64
	// IO prices every transfer.
	IO *iomodel.Model
	// LM is the migration model (used only when Hybrid).
	LM lm.Config
	// Hybrid enables the LM-preferred policy of the hybrid p-ckpt model;
	// false forces every prediction onto the p-ckpt path (model P1).
	Hybrid bool
	// Metrics, when non-nil, receives the episode's protocol metrics
	// ("pckpt."-prefixed: priority-queue depth over episode time, lane
	// wait, per-node commit latency, phase-2 effective bandwidth). Nil
	// costs nothing.
	Metrics *metrics.Registry
	// Faults is the degraded-platform fault plan: a prioritized write
	// that fails re-enters the lead-time priority queue if the remaining
	// lead covers another attempt, or its prediction goes unserved. The
	// zero value is a perfect platform.
	Faults faultinject.Config
	// FaultSeed seeds the fault plan's rng substream (only consulted when
	// Faults is non-zero; the episode is deterministic in it).
	FaultSeed uint64
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("pckpt: non-positive node count")
	case c.PerNodeGB <= 0:
		return fmt.Errorf("pckpt: non-positive per-node footprint")
	case c.IO == nil:
		return fmt.Errorf("pckpt: nil I/O model")
	}
	if c.Hybrid {
		if err := c.LM.Validate(); err != nil {
			return err
		}
	}
	return c.Faults.Validate()
}

// Prediction is one failure prediction injected into the episode.
type Prediction struct {
	// Node is the vulnerable node.
	Node int
	// At is the episode-relative time the prediction arrives.
	At float64
	// Lead is the predicted lead time to failure, so the failure is due
	// at At+Lead.
	Lead float64
}

// Outcome records what one vulnerable node did.
type Outcome struct {
	// Node is the vulnerable node.
	Node int
	// Action is the path taken.
	Action Action
	// Deadline is the predicted failure time (episode-relative).
	Deadline float64
	// DoneAt is when the node's state was safe: PFS commit time for
	// p-ckpt, migration completion for LM.
	DoneAt float64
	// Mitigated reports whether the node finished before its deadline.
	Mitigated bool
}

// Result is the outcome of one protocol episode.
type Result struct {
	// PckptTriggered reports whether any node initiated p-ckpt (pure-LM
	// episodes never pause the healthy nodes).
	PckptTriggered bool
	// Phase1End is when the last phase-1 vulnerable commit finished and
	// the pfs-commit broadcast fired (zero if p-ckpt never triggered).
	Phase1End float64
	// Phase2End is when the healthy nodes' collective PFS write
	// finished; the application resumes here.
	Phase2End float64
	// Outcomes lists every vulnerable node's path, in completion order.
	Outcomes []Outcome
	// CommitOrder is the order nodes were granted prioritized PFS
	// access in phase 1 (a node whose write tore and was requeued
	// appears once per grant).
	CommitOrder []int
	// Trace is a human-readable protocol event log.
	Trace []string
	// WriteFailures counts injected PFS write failures (phase 1 and
	// phase 2); zero on a perfect platform.
	WriteFailures int
	// Requeues counts vulnerable nodes that re-entered the priority
	// queue after a torn prioritized write.
	Requeues int
}

// Mitigated returns how many vulnerable nodes finished before their
// deadlines.
func (r *Result) Mitigated() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Mitigated {
			n++
		}
	}
	return n
}

// episode is the shared protocol state. All mutation happens under the
// simulator's lock-step execution, so no synchronization is needed.
type episode struct {
	cfg Config
	env *sim.Env

	pckptActive bool
	// vulnQ holds nodes awaiting prioritized PFS access, keyed by
	// predicted failure deadline (lower deadline = less lead = higher
	// priority).
	vulnQ queue.PQ[*vulnNode]
	// queued signals the arbiter that the queue became non-empty (or
	// that a prediction process finished, so the arbiter should recheck
	// whether the episode is over).
	queued *sim.Event
	// writeDone is re-armed per grant: the writing node triggers it when
	// its prioritized PFS commit finishes.
	writeDone *sim.Event
	// pckptStart releases... notifies healthy nodes to pause; pfsCommit
	// releases them into phase 2.
	pfsCommit *sim.Event
	// pending counts vulnerable nodes on the p-ckpt path that have not
	// committed yet (queued or writing).
	pending int
	// migrations tracks in-flight migrations for the abort broadcast.
	migrations map[int]*sim.Proc
	// inj is the degraded-platform fault plan (nil = perfect platform).
	inj *faultinject.Injector

	met epMetrics

	result Result
}

// epMetrics is the episode's instrument handle set; all nil (and every
// call a free no-op) when Config.Metrics is nil.
type epMetrics struct {
	// laneWait is each vulnerable node's span from enqueue to the
	// arbiter's grant; commitLat extends it through the prioritized write.
	laneWait  *metrics.Histogram
	commitLat *metrics.Histogram
	// pfsGBs is the effective aggregate bandwidth of the phase-2 write.
	pfsGBs *metrics.Histogram
	// queueDepth tracks the priority queue's population over episode time.
	queueDepth *metrics.Gauge
}

func newEpMetrics(r *metrics.Registry) epMetrics {
	if r == nil {
		return epMetrics{}
	}
	return epMetrics{
		laneWait:   r.Histogram("pckpt.lane_wait_seconds"),
		commitLat:  r.Histogram("pckpt.commit_latency_seconds"),
		pfsGBs:     r.Histogram("pckpt.pfs_effective_gbps"),
		queueDepth: r.Gauge("pckpt.queue_depth"),
	}
}

type vulnNode struct {
	node     int
	deadline float64
	turn     *sim.Event
}

func (e *episode) tracef(format string, args ...any) {
	e.result.Trace = append(e.result.Trace, fmt.Sprintf("t=%8.2f  %s", e.env.Now(), fmt.Sprintf(format, args...)))
}

// Run simulates one protocol episode: the predictions arrive as given,
// nodes act per the (hybrid) p-ckpt policy, and the episode ends when
// every triggered action has completed. Episode time starts at zero.
func Run(cfg Config, preds []Prediction) *Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	for _, p := range preds {
		if p.Node < 0 || p.Node >= cfg.Nodes {
			panic(fmt.Sprintf("pckpt: prediction for node %d outside [0, %d)", p.Node, cfg.Nodes))
		}
		if p.At < 0 || p.Lead < 0 {
			panic("pckpt: negative prediction time or lead")
		}
	}
	env := sim.NewEnv()
	e := &episode{
		cfg:        cfg,
		env:        env,
		queued:     sim.NewEvent(env),
		pfsCommit:  sim.NewEvent(env),
		migrations: make(map[int]*sim.Proc),
	}
	e.met = newEpMetrics(cfg.Metrics)
	// The fault plan draws from the dedicated injection substream of
	// FaultSeed's source; a zero Faults config yields the nil (no-op)
	// injector and consumes nothing.
	e.inj = faultinject.New(cfg.Faults, rng.New(cfg.FaultSeed).Split(faultinject.StreamKey), cfg.Metrics)
	env.Spawn("arbiter", e.arbiter)
	for i, p := range preds {
		p := p
		env.SpawnAt(p.At, fmt.Sprintf("pred-%d-node-%d", i, p.Node), func(proc *sim.Proc) {
			e.onPrediction(proc, p)
		})
	}
	env.RunAll()
	env.Release()
	sort.SliceStable(e.result.Outcomes, func(i, j int) bool {
		return e.result.Outcomes[i].DoneAt < e.result.Outcomes[j].DoneAt
	})
	return &e.result
}

// onPrediction is the vulnerable node's process: choose LM or p-ckpt,
// execute it, record the outcome.
func (e *episode) onPrediction(proc *sim.Proc, p Prediction) {
	// After this process finishes (its node is safe), poke the arbiter so
	// it can notice the episode may be over. The callback runs after the
	// process has been reaped, so the arbiter's idle check sees the
	// up-to-date process count.
	defer e.env.At(0, func() { e.queued.Trigger() })
	deadline := e.env.Now() + p.Lead
	theta := e.cfg.LM.Theta(e.cfg.PerNodeGB)
	if e.cfg.Hybrid && !e.pckptActive && p.Lead >= theta {
		e.tracef("node %d vulnerable (lead %.2fs): live migration (θ=%.2fs)", p.Node, p.Lead, theta)
		e.migrations[p.Node] = proc
		err := proc.Wait(theta)
		delete(e.migrations, p.Node)
		if err == nil {
			e.tracef("node %d migration complete", p.Node)
			e.record(Outcome{Node: p.Node, Action: ActionLM, Deadline: deadline, DoneAt: e.env.Now(), Mitigated: e.env.Now() <= deadline})
			return
		}
		// Aborted by a p-ckpt request: fall through to the queue.
		e.tracef("node %d migration ABORTED: %v", p.Node, err.(*sim.Interrupt).Reason)
		e.joinQueue(proc, p.Node, deadline, ActionLMAborted)
		return
	}
	if e.cfg.Hybrid {
		e.tracef("node %d vulnerable (lead %.2fs < θ=%.2fs or p-ckpt active): p-ckpt", p.Node, p.Lead, theta)
	} else {
		e.tracef("node %d vulnerable (lead %.2fs): p-ckpt", p.Node, p.Lead)
	}
	e.startPckpt()
	e.joinQueue(proc, p.Node, deadline, ActionPckpt)
}

// startPckpt broadcasts the p-ckpt request (idempotent) and aborts every
// in-flight migration, per the Fig. 5 state diagram. Aborts go out in
// ascending node order — not map order — because each aborted node
// re-enters the lead-time queue in the order its interrupt is delivered,
// and that queue breaks deadline ties by push order (the step port's
// policy.State.AbortMigrations visits in the same order).
func (e *episode) startPckpt() {
	if e.pckptActive {
		return
	}
	e.pckptActive = true
	e.result.PckptTriggered = true
	e.tracef("p-ckpt request broadcast: healthy nodes enter waiting state")
	nodes := make([]int, 0, len(e.migrations))
	for node := range e.migrations {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		e.tracef("aborting in-flight migration of node %d", node)
		e.migrations[node].Interrupt("p-ckpt supersedes migration")
	}
}

// joinQueue enqueues the node by deadline priority and blocks until its
// prioritized write completes. On a degraded platform a torn write
// re-enters the queue — same deadline, so the same lead-time priority —
// as long as the remaining lead covers another attempt; once it cannot,
// the prediction goes unserved.
func (e *episode) joinQueue(proc *sim.Proc, node int, deadline float64, action Action) {
	write := e.cfg.IO.SingleNodePFSWriteTime(e.cfg.PerNodeGB)
	enqueued := e.env.Now()
	e.pending++
	for {
		vn := &vulnNode{node: node, deadline: deadline, turn: sim.NewEvent(e.env)}
		e.vulnQ.Push(deadline, vn)
		e.met.queueDepth.Set(e.env.Now(), float64(e.vulnQ.Len()))
		e.tracef("node %d queued (deadline %.2fs, queue depth %d)", node, deadline, e.vulnQ.Len())
		e.queued.Trigger()
		if err := proc.WaitEvent(vn.turn); err != nil {
			panic(fmt.Sprintf("pckpt: queue turn interrupted: %v", err))
		}
		e.met.laneWait.Observe(e.env.Now() - enqueued)
		// The arbiter granted exclusive PFS access; write uncontended.
		if err := proc.Wait(write); err != nil {
			panic(fmt.Sprintf("pckpt: prioritized write interrupted: %v", err))
		}
		if e.inj.PFSWriteFails() {
			e.result.WriteFailures++
			if e.env.Now()+write <= deadline {
				e.tracef("node %d prioritized write FAILED (injected): re-enters the queue", node)
				e.result.Requeues++
				e.writeDone.Trigger()
				continue
			}
			e.tracef("node %d prioritized write FAILED (injected): lead exhausted, commit abandoned", node)
			e.record(Outcome{Node: node, Action: action, Deadline: deadline, DoneAt: e.env.Now(), Mitigated: false})
			e.pending--
			e.writeDone.Trigger()
			return
		}
		break
	}
	done := e.env.Now()
	e.met.commitLat.Observe(done - enqueued)
	e.tracef("node %d committed to PFS (%s)", node, map[bool]string{true: "in time", false: "LATE"}[done <= deadline])
	e.record(Outcome{Node: node, Action: action, Deadline: deadline, DoneAt: done, Mitigated: done <= deadline})
	e.pending--
	e.writeDone.Trigger()
}

func (e *episode) record(o Outcome) {
	e.result.Outcomes = append(e.result.Outcomes, o)
}

// arbiter grants prioritized PFS access in deadline order and fires the
// two-phase transitions.
func (e *episode) arbiter(proc *sim.Proc) {
	for {
		// Wait for work. When no predictions remain the episode's other
		// processes finish and this wait would hang forever — so bail
		// out when the environment holds no other live processes.
		for e.vulnQ.Len() == 0 {
			if e.pending == 0 && e.idle() {
				e.finish(proc)
				return
			}
			e.queued.Reset()
			if err := proc.WaitEvent(e.queued); err != nil {
				panic(fmt.Sprintf("pckpt: arbiter interrupted: %v", err))
			}
		}
		_, vn := e.vulnQ.Pop()
		e.met.queueDepth.Set(e.env.Now(), float64(e.vulnQ.Len()))
		e.result.CommitOrder = append(e.result.CommitOrder, vn.node)
		e.tracef("arbiter grants PFS to node %d", vn.node)
		e.writeDone = sim.NewEvent(e.env)
		wd := e.writeDone
		vn.turn.Trigger()
		if err := proc.WaitEvent(wd); err != nil {
			panic(fmt.Sprintf("pckpt: arbiter wait interrupted: %v", err))
		}
	}
}

// idle reports whether only the arbiter itself remains alive, meaning no
// prediction process can enqueue more work.
func (e *episode) idle() bool {
	return e.env.ProcCount() <= 1
}

// finish runs the phase transition when the queue drained for good: if
// p-ckpt was triggered, broadcast pfs-commit and perform the healthy
// nodes' collective phase-2 write.
func (e *episode) finish(proc *sim.Proc) {
	if !e.result.PckptTriggered {
		return
	}
	e.result.Phase1End = e.env.Now()
	healthy := e.cfg.Nodes - len(e.result.CommitOrder)
	e.tracef("all vulnerable nodes committed: pfs-commit broadcast, %d healthy nodes begin phase 2", healthy)
	e.pfsCommit.Trigger()
	if healthy > 0 {
		tr := e.cfg.IO.PFSWriteTransfer(healthy, e.cfg.PerNodeGB)
		for attempt := 0; ; attempt++ {
			if err := proc.Wait(tr.Seconds); err != nil {
				panic(fmt.Sprintf("pckpt: phase-2 write interrupted: %v", err))
			}
			if attempt < faultinject.MaxCascadeDepth && e.inj.PFSWriteFails() {
				// The collective write failed after its full duration;
				// the healthy nodes redo it (bounded, so a pathological
				// plan cannot spin the episode forever).
				e.result.WriteFailures++
				e.tracef("phase-2 collective write FAILED (injected): retrying")
				continue
			}
			break
		}
		e.met.pfsGBs.Observe(tr.GBs)
	}
	e.result.Phase2End = e.env.Now()
	e.tracef("phase 2 complete: application checkpoint fully on PFS")
}
