// Package globalview implements the extension the paper marks as beyond
// its scope (Sec. VII, "Feasibility"): p-ckpt with a *global system
// view*. The published protocol coordinates the processes of a single
// application; when several applications share the machine, one job's
// vulnerable node can end up racing its failure deadline while another
// job's phase-2 bulk commit (hundreds of healthy nodes writing at once)
// floods the PFS. Per-job coordination cannot see that conflict.
//
// Two coordination modes run identical workloads of p-ckpt episodes:
//
//   - PerJob: each application runs the published protocol in isolation.
//     Its vulnerable node writes "uncontended" — but only job-locally:
//     on the shared PFS it processor-shares bandwidth with whatever
//     other jobs are doing, including their phase-2 floods.
//   - Global: a machine-wide view orders vulnerable commits across jobs
//     by lead time AND suspends any in-flight bulk phase while a
//     vulnerable node is writing, restoring the contention-free critical
//     path the protocol's deadline math assumes.
//
// The headline output is the global fault-tolerance ratio under bursty,
// overlapping episodes: the global view mitigates strictly more failures
// once bursts overlap across jobs.
package globalview

import (
	"fmt"
	"slices"
	"sort"

	"pckpt/internal/iomodel"
	"pckpt/internal/sim"
)

// Job describes one application sharing the machine.
type Job struct {
	// Name identifies the job in results.
	Name string
	// Nodes is the job's node count (phase 2 writes Nodes−1 at once).
	Nodes int
	// PerNodeGB is each node's checkpoint footprint.
	PerNodeGB float64
}

// Mode selects the coordination strategy.
type Mode uint8

const (
	// PerJob: independent per-application protocol instances.
	PerJob Mode = iota
	// Global: machine-wide vulnerable-first coordination.
	Global
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Global {
		return "global"
	}
	return "per-job"
}

// Config parameterises a run.
type Config struct {
	// Jobs are the co-resident applications.
	Jobs []Job
	// IO prices the writes; nil selects the default Summit model.
	IO *iomodel.Model
	// Mode selects per-job or global coordination.
	Mode Mode
}

func (c Config) withDefaults() Config {
	if c.IO == nil {
		c.IO = iomodel.New(iomodel.DefaultSummit())
	}
	return c
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	if len(c.Jobs) == 0 {
		return fmt.Errorf("globalview: no jobs")
	}
	for _, j := range c.Jobs {
		if j.Name == "" || j.PerNodeGB <= 0 || j.Nodes < 2 {
			return fmt.Errorf("globalview: invalid job %+v", j)
		}
	}
	if c.Mode > Global {
		return fmt.Errorf("globalview: invalid mode %d", c.Mode)
	}
	return nil
}

// Prediction announces a coming failure on one job's node, triggering a
// full p-ckpt episode for that job (phase 1: the vulnerable node's
// prioritized write; phase 2: the job's remaining nodes commit in bulk).
type Prediction struct {
	// Job indexes into Config.Jobs.
	Job int
	// Node is the job-local node index (diagnostic only).
	Node int
	// At is when the prediction arrives; Lead the time to failure.
	At, Lead float64
}

// Outcome records one episode's fate.
type Outcome struct {
	Job, Node int
	// Deadline is the predicted failure time; CommitAt when the
	// vulnerable node's data reached the PFS; EpisodeEnd when phase 2
	// finished.
	Deadline, CommitAt, EpisodeEnd float64
	// Mitigated reports whether the vulnerable commit beat the deadline.
	Mitigated bool
}

// JobResult aggregates per job.
type JobResult struct {
	Name                string
	Episodes, Mitigated int
}

// Result is one run's outcome.
type Result struct {
	Mode Mode
	// Outcomes lists every episode in vulnerable-commit order.
	Outcomes []Outcome
	// Jobs aggregates per application.
	Jobs []JobResult
	// PeakLaneSharers is the largest number of node-groups that shared
	// the PFS simultaneously (1 means perfectly serialized).
	PeakLaneSharers int
}

// FTRatio returns mitigated / total across all jobs.
func (r *Result) FTRatio() float64 {
	if len(r.Outcomes) == 0 {
		return 0
	}
	n := 0
	for _, o := range r.Outcomes {
		if o.Mitigated {
			n++
		}
	}
	return float64(n) / float64(len(r.Outcomes))
}

// writer is one node-group pushing data through the shared PFS.
type writer struct {
	// remainingGB is the group's total outstanding volume (nodes ×
	// per-node footprint).
	remainingGB float64
	perNodeGB   float64
	nodes       int
	job         int
	vulnerable  bool
	proc        *sim.Proc // the episode process doing the write
}

// lane is the shared PFS path as a processor-sharing resource with a
// vulnerable-first preemption rule whose scope depends on the mode: a
// per-job protocol instance pauses only its own bulk phase while its own
// vulnerable node writes (it cannot see other jobs), whereas the global
// view pauses every bulk phase machine-wide. Bandwidth splits across
// active groups in proportion to their node counts, per the
// aggregate-bandwidth curve for the total active node count.
type lane struct {
	env       *sim.Env
	io        *iomodel.Model
	globalCut bool       // Global mode: any vulnerable writer suspends all bulk
	writers   []*writer  // in joining order, so same-time wakes are ordered
	resume    *sim.Event // pulsed when a vulnerable writer leaves
	peak      int
}

func newLane(env *sim.Env, io *iomodel.Model, globalCut bool) *lane {
	return &lane{env: env, io: io, globalCut: globalCut, resume: sim.NewEvent(env)}
}

// vulnActive reports whether a vulnerable writer is in flight — any at
// all, or one belonging to the given job (job ≥ 0).
func (l *lane) vulnActive(job int) bool {
	for _, w := range l.writers {
		if w.vulnerable && (job < 0 || w.job == job) {
			return true
		}
	}
	return false
}

// suspended reports whether w must pause: a bulk writer yields to any
// vulnerable writer machine-wide under the global view, and to its own
// job's vulnerable writers always (the published protocol's phase order).
func (l *lane) suspended(w *writer) bool {
	if w.vulnerable {
		return false
	}
	if l.globalCut {
		return l.vulnActive(-1)
	}
	return l.vulnActive(w.job)
}

// activeNodes sums the node counts of all non-suspended writers.
func (l *lane) activeNodes() int {
	n := 0
	for _, w := range l.writers {
		if !l.suspended(w) {
			n += w.nodes
		}
	}
	return n
}

// rate returns w's current bandwidth share in GB/s (node-proportional
// split of the aggregate curve at the active node count).
func (l *lane) rate(w *writer) float64 {
	total := l.activeNodes()
	return l.io.AggregateBandwidth(total, w.perNodeGB) * float64(w.nodes) / float64(total)
}

// write pushes perNodeGB × nodes through the lane and returns when done.
func (l *lane) write(p *sim.Proc, job, nodes int, perNodeGB float64, vulnerable bool) {
	w := &writer{remainingGB: perNodeGB * float64(nodes), perNodeGB: perNodeGB, nodes: nodes, job: job, vulnerable: vulnerable, proc: p}
	l.writers = append(l.writers, w)
	l.rerateOthers(w)
	if sharers := len(l.writers); sharers > l.peak {
		l.peak = sharers
	}
	defer func() {
		l.writers = slices.DeleteFunc(l.writers, func(x *writer) bool { return x == w })
		if vulnerable {
			// A vulnerable writer left: wake the suspended bulk phases to
			// re-check their gate.
			l.resume.Pulse()
		}
		l.rerateOthers(w)
	}()
	for w.remainingGB > 1e-9 {
		if l.suspended(w) {
			// Preempted: wait for the vulnerable traffic to drain. Any
			// interrupt (a re-rate) just re-checks the condition.
			_ = p.WaitEvent(l.resume)
			continue
		}
		rate := l.rate(w)
		start := l.env.Now()
		err := p.Wait(w.remainingGB / rate)
		w.remainingGB -= (l.env.Now() - start) * rate
		if err == nil {
			return
		}
	}
}

// rerateOthers interrupts every other writer blocked mid-transfer, in
// joining order, so it recomputes its share under the new membership.
func (l *lane) rerateOthers(except *writer) {
	for _, w := range l.writers {
		if w != except {
			w.proc.Interrupt("re-rate")
		}
	}
}

// turn takes p's turn at r in deadline order. No episode is interrupted
// while it waits for a turn (only lane writers are), so an interrupt is a
// bug.
func turn(r *sim.Resource, p *sim.Proc, deadline float64) {
	if err := r.Acquire(p, deadline); err != nil {
		panic(fmt.Sprintf("globalview: turn wait interrupted: %v", err))
	}
}

// Run simulates one prediction workload under the configured mode.
func Run(cfg Config, preds []Prediction) *Result {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	for _, pr := range preds {
		if pr.Job < 0 || pr.Job >= len(cfg.Jobs) {
			panic(fmt.Sprintf("globalview: prediction for unknown job %d", pr.Job))
		}
		if pr.At < 0 || pr.Lead < 0 {
			panic("globalview: negative prediction time or lead")
		}
	}
	env := sim.NewEnv()
	res := &Result{Mode: cfg.Mode, Jobs: make([]JobResult, len(cfg.Jobs))}
	for i, j := range cfg.Jobs {
		res.Jobs[i].Name = j.Name
	}
	ln := newLane(env, cfg.IO, cfg.Mode == Global)

	// Vulnerable commits take turns at a lead-time priority grant (a
	// capacity-1 sim.Resource keyed by deadline) — one per job under
	// PerJob (the published protocol's node-local queue), one
	// machine-wide under Global. Phase-2 bulk commits serialize per job
	// in both modes (a job cannot run two collective commits at once),
	// but never block another episode's vulnerable write: a node
	// predicted mid-episode joins phase 1 immediately, as in Fig. 5.
	bulkArbs := make([]*sim.Resource, len(cfg.Jobs))
	for i := range bulkArbs {
		bulkArbs[i] = sim.NewResource(env, 1)
	}
	vulnArbs := make([]*sim.Resource, len(cfg.Jobs))
	if cfg.Mode == Global {
		shared := sim.NewResource(env, 1)
		for i := range vulnArbs {
			vulnArbs[i] = shared
		}
	} else {
		for i := range vulnArbs {
			vulnArbs[i] = sim.NewResource(env, 1)
		}
	}

	for i, pr := range preds {
		pr := pr
		env.SpawnAt(pr.At, fmt.Sprintf("episode-%d", i), func(p *sim.Proc) {
			job := cfg.Jobs[pr.Job]
			deadline := env.Now() + pr.Lead
			// Phase 1: the vulnerable node's prioritized commit, ordered
			// by lead time within its grant's scope.
			turn(vulnArbs[pr.Job], p, deadline)
			ln.write(p, pr.Job, 1, job.PerNodeGB, true)
			commit := env.Now()
			vulnArbs[pr.Job].Release()
			// Phase 2: the job's healthy nodes commit in bulk.
			turn(bulkArbs[pr.Job], p, deadline)
			ln.write(p, pr.Job, job.Nodes-1, job.PerNodeGB, false)
			bulkArbs[pr.Job].Release()

			res.Jobs[pr.Job].Episodes++
			o := Outcome{Job: pr.Job, Node: pr.Node, Deadline: deadline, CommitAt: commit,
				EpisodeEnd: env.Now(), Mitigated: commit <= deadline}
			if o.Mitigated {
				res.Jobs[pr.Job].Mitigated++
			}
			res.Outcomes = append(res.Outcomes, o)
		})
	}
	env.RunAll()
	env.Release()
	res.PeakLaneSharers = ln.peak
	sort.SliceStable(res.Outcomes, func(i, j int) bool { return res.Outcomes[i].CommitAt < res.Outcomes[j].CommitAt })
	return res
}
