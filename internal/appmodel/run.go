// Package appmodel is the paper's C/R model at application granularity,
// written once: a run of one of the five models (internal/policy) on one
// platform, as the transitions that take no simulated time (admitting a
// stream event, opening a compute cycle, settling a write or a drain,
// reacting to a prediction, serving an episode, striking a failure).
//
// Two schedulers execute a Run: internal/crmodel as goroutine processes
// on sim.Env, the reference and the counterpart of the paper's SimPy
// study, and internal/stepsim as continuations on sim.Engine, which
// every sweep uses. A scheduler keeps only how the application waits
// between transitions: it passes each transition its clock reading now
// and waits out the durations they return. No transition schedules
// anything, so the two tiers compute the same run exactly when their
// schedulers order the transitions alike, which the bit-identity tests
// check.
package appmodel

import (
	"fmt"

	"pckpt/internal/cluster"
	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/iomodel"
	"pckpt/internal/metrics"
	"pckpt/internal/oci"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/trace"
)

// Setup is what every run of one configuration shares, derived once: the
// model and its strategy, the defaulted platform, its derived quantities
// and the model's σ, the rate estimator's prior, the spare limit, and the
// timeline recorder. It is read-only, so concurrent runs share it.
type Setup struct {
	Model  policy.ID
	Policy policy.Policy
	Config platform.Config
	// Plat holds the platform quantities (seconds / GB) derived by
	// internal/platform; Sigma is Eq. (2)'s σ gated on the model's LM
	// capability (0 for B/M1/P1).
	Plat  platform.Derived
	Sigma float64
	// Prior is the analytic job failure rate the OCI estimator starts
	// from; Spares is the node table's spare limit.
	Prior  float64
	Spares int
	// Trace, when non-nil, receives every run's timeline.
	Trace trace.Recorder
}

// NewSetup derives the setup of model on cfg, which must be defaulted and
// valid.
func NewSetup(model policy.ID, cfg platform.Config, tr trace.Recorder) Setup {
	plat := cfg.Derive()
	return Setup{
		Model:  model,
		Policy: policy.For(model),
		Config: cfg,
		Plat:   plat,
		Sigma:  model.Sigma(plat),
		Prior:  cfg.System.JobFailureRate(cfg.App.Nodes),
		Spares: cfg.SpareLimit(),
		Trace:  tr,
	}
}

// Run is one application run: its setup, the node table and the C/R
// lifecycle state (policy.State, both owned by the scheduler's record),
// the OCI estimator, the fault plan, the metric handles, the progress of
// the computation and the accounting. Init readies it for a run.
type Run struct {
	*Setup
	// Inj is the degraded-platform fault plan (nil = perfect platform;
	// every hook on nil is a no-op). The scheduler sets it once the run's
	// sources are seeded, after Init resolved the metric handles.
	Inj *faultinject.Injector
	Met RunMetrics
	// Progress is the completed computation in seconds; Target is where
	// the current compute cycle ends.
	Progress, Target float64
	Res              stats.RunResult

	cl    *cluster.Cluster
	st    *policy.State
	est   failure.RateEstimator
	hooks Hooks

	// The live p-ckpt episode (episodes never overlap): its start, the
	// vulnerable node in service and the phase-2 collective transfer.
	ep      *policy.Episode
	epBegin float64
	epEv    failure.Event
	epTr    iomodel.Transfer
	// M1's safeguard: at most one is in flight (safeguarding); it began at
	// sgBegan from progress sgStart and committed at sgT.
	safeguarding          bool
	sgBegan, sgStart, sgT float64
}

// Hooks are a Run's two callbacks into policy.State: the migration abort
// an episode applies to every in-flight migration, and the safeguard's
// mitigation sweep over the outstanding predictions. A record that
// re-initialises one Run for run after run binds them once (Bind) and
// hands them to every Init, so a warm run allocates nothing.
type Hooks struct {
	abortMigration func(failure.Event)
	mitigate       func(id int64, p policy.Prediction)
}

// Bind binds r's hooks to r.
func (r *Run) Bind() Hooks {
	return Hooks{abortMigration: r.migrationAborted, mitigate: r.safeguardMitigates}
}

// Init readies r for one run of s: the node table cl and lifecycle state
// st (storage the scheduler keeps) are reset in place, the estimator
// starts from s.Prior, and the metric handles resolve against reg (nil
// runs unmetered). Everything else starts zero.
func (r *Run) Init(s *Setup, cl *cluster.Cluster, st *policy.State, h Hooks, reg *metrics.Registry) {
	*r = Run{Setup: s, Met: NewRunMetrics(reg, s.Model), cl: cl, st: st, hooks: h}
	r.est.Reset(s.Prior)
	cl.Reset(s.Config.App.Nodes, s.Spares)
	st.Reset()
}

// record emits a timeline event at now when tracing is on.
func (r *Run) record(now float64, kind trace.Kind, node int, detail string) {
	if r.Trace == nil {
		return
	}
	r.Trace.Record(trace.Event{T: now, Kind: kind, Node: node, Progress: r.Progress, Detail: detail})
}

// Admit reports whether the application receives stream event ev. A
// failure that a completed live migration emptied the node of is
// swallowed, any other feeds the rate estimator; model B ignores the
// predictor entirely.
func (r *Run) Admit(ev failure.Event) bool {
	switch ev.Kind {
	case failure.KindFailure:
		if r.st.ConsumeAvoided(ev.ID) {
			return false
		}
		r.est.Observe()
	default:
		if !r.Model.UsesPrediction() {
			return false
		}
	}
	return true
}

// Working reports whether computation remains and the job is alive.
func (r *Run) Working() bool {
	return r.Progress < r.Plat.ComputeSeconds && !r.Res.Truncated
}

// interval sets Target one checkpoint interval past the progress, the
// OCI re-derived at now from the current failure rate estimate, per
// Eq. (1) (σ=0) or Eq. (2).
func (r *Run) interval(now float64) {
	r.Target = min(r.Progress+oci.FromJobRate(r.Plat.BBWrite, r.est.Rate(now), r.Sigma), r.Plat.ComputeSeconds)
}

// CycleStart opens a compute cycle at now.
func (r *Run) CycleStart(now float64) {
	r.interval(now)
	// Guard the Sprintf, not just the record: the hot path must not
	// format (or allocate) when tracing is off.
	if r.Trace != nil {
		r.record(now, trace.CycleStart, -1, fmt.Sprintf("interval=%.0fs", r.Target-r.Progress))
	}
}

// Residual returns the computation left before Target, or 0 once the
// cycle is done. The float sums can stall a hair short of the target once
// simulated time can no longer resolve the residual, so anything below a
// microsecond counts as done and the scheduler snaps Progress to Target.
// Without the snap, a rollback that lands progress just short of
// ComputeSeconds livelocks the run: compute 0s, checkpoint, forever.
func (r *Run) Residual() float64 {
	if d := r.Target - r.Progress; d > 1e-6 {
		return d
	}
	return 0
}

// Rebase re-bases an interrupted cycle at now when a proactive action
// committed a full checkpoint meanwhile: the paper's adaptive schedule
// starts a fresh interval from the current progress.
func (r *Run) Rebase(now float64) {
	if r.st.TakeRescheduled() {
		r.interval(now)
	}
}

// Drain is one BB→PFS drain in flight: the checkpoint it moves and its
// generation. Several can be in flight.
type Drain struct {
	progress float64
	gen      int
}

// Quiet is a snapshot of a run the failure stream has not reached yet,
// taken at a canonical point: a compute cycle has just opened, and
// exactly one drain is in flight, the one the last BB write started.
// Before its first stream event a run reads nothing that depends on its
// seed (no event was admitted, so the rate estimator has observed
// nothing and no node is marked), so every seed of a cell without a
// fault plan, metering or a trace passes the same canonical points in
// the same states, and a run can restart from any of them that precedes
// its first stream event. A snapshot holds what such a run has moved:
// the progress and the cycle's target, the periodic-checkpoint
// accounting, the lifecycle state's quiet part and the node table's
// coordinated records. The drain in flight is the last BB write's, so
// the progress and the newest drain generation name it.
type Quiet struct {
	progress, target float64
	checkpoint       float64
	checkpoints      int
	state            policy.Quiet
	bb, pfs          float64
}

// Capture snapshots r into q and reports true when exactly one drain is
// in flight. Call it only at a canonical point of a run that has seen no
// stream event and has no fault plan: the drain in flight is then the
// last BB write's, which committed the current progress (opening the
// cycle moved only its target).
func (r *Run) Capture(q *Quiet) bool {
	if _, inFlight := r.st.Drains(); inFlight != 1 {
		return false
	}
	*q = Quiet{
		progress: r.Progress, target: r.Target,
		checkpoint: r.Res.Overheads.Checkpoint, checkpoints: r.Res.Checkpoints,
	}
	r.st.CaptureQuiet(&q.state)
	q.bb, q.pfs = r.cl.Coordinated()
	return true
}

// Restore sets r to the snapshot q and returns the drain in flight, which
// the scheduler restarts before it re-arms the cycle's compute. r must be
// freshly initialised, with nothing computed or accounted yet: Restore
// panics otherwise.
func (r *Run) Restore(q *Quiet) Drain {
	if r.Progress != 0 || r.Res != (stats.RunResult{}) {
		panic("appmodel: Restore onto a run that has progressed")
	}
	r.Progress, r.Target = q.progress, q.target
	r.Res.Overheads.Checkpoint, r.Res.Checkpoints = q.checkpoint, q.checkpoints
	r.st.RestoreQuiet(&q.state)
	r.cl.SetCoordinated(q.bb, q.pfs)
	gen, _ := r.st.Drains()
	return Drain{progress: r.Progress, gen: gen}
}

// BBWritten settles at now a periodic checkpoint's BB write that began at
// began; ok is false when a failure voided it, rolling progress back (the
// next cycle checkpoints the redone state). A write the platform failed
// commits nothing either. When it commits, the scheduler launches the
// asynchronous drain d, due Plat.Drain later, and then calls DrainDone.
func (r *Run) BBWritten(now, began float64, ok bool) (d Drain, drain bool) {
	if !ok {
		r.Met.BBAborted.Inc()
		return d, false
	}
	r.Met.BBWrite.Observe(now - began)
	if r.Inj.BBWriteFails() {
		// The write occupied the BBs for its full duration and then
		// failed: nothing committed, no drain.
		r.Res.BBWriteFailures++
		r.record(now, trace.BBWrite, -1, "write failed (injected)")
		return d, false
	}
	r.Res.Checkpoints++
	if r.Inj.CorruptCommit() {
		// Silently torn: the job believes this generation is good; a
		// restart that reads it will discover otherwise.
		r.st.MarkCorrupt(r.Progress)
	}
	r.record(now, trace.BBWrite, -1, "")
	r.cl.RecordBBCheckpointAll(r.Progress)
	gen, depth := r.st.BeginDrain()
	r.Met.DrainDepth.Set(now, float64(depth))
	return Drain{progress: r.Progress, gen: gen}, true
}

// DrainDone completes drain d at now. It lands the checkpoint on the PFS
// unless a newer checkpoint superseded it (each BB write restarts the
// drain of the newest data) or the platform failed the PFS write, which
// leaves the BB copy standing.
func (r *Run) DrainDone(now float64, d Drain) {
	depth, current := r.st.FinishDrain(d.gen)
	r.Met.DrainDepth.Set(now, float64(depth))
	if !current {
		return
	}
	if r.Inj.PFSWriteFails() {
		r.Res.PFSWriteFailures++
		r.record(now, trace.DrainDone, -1, "drain failed (injected)")
		return
	}
	r.commitFullPFS(d.progress)
	r.record(now, trace.DrainDone, -1, "")
}

// commitFullPFS records a full-application checkpoint at progress q as
// resident on the PFS.
func (r *Run) commitFullPFS(q float64) {
	if r.st.CommitPFS(q) {
		r.cl.RecordPFSCheckpointAll(q)
	}
}

// Predicted handles a prediction, true or spurious, delivered at now: a
// true one enters the ledger, both are traced, and the node is marked
// vulnerable. marked asks the scheduler to call ClearVulnerable at the
// predicted failure time. act is the model's reaction; joining the live
// episode is done here, so the scheduler enacts only ActMigrate,
// ActStartEpisode and ActSafeguard.
func (r *Run) Predicted(now float64, ev failure.Event) (marked bool, act policy.Action) {
	if ev.Kind == failure.KindPrediction {
		r.st.RecordPrediction(ev.ID, policy.Prediction{Node: ev.Node, FailAt: ev.FailTime, Lead: ev.Lead})
		if r.Trace != nil {
			r.record(now, trace.Prediction, ev.Node, fmt.Sprintf("lead=%.1fs", ev.Lead))
		}
	} else if r.Trace != nil {
		r.record(now, trace.SpuriousPrediction, ev.Node, fmt.Sprintf("lead=%.1fs", ev.Lead))
	}
	marked = r.cl.MarkVulnerable(ev.Node, ev.FailTime) == nil
	act = r.Policy.OnPrediction(r.st, ev.Node, ev.Lead, r.Plat.Theta)
	if act == policy.ActJoinEpisode {
		// Phase 1 in progress: the new vulnerable node joins the
		// node-local priority queue (lower lead = higher priority).
		r.ep.Q.Push(ev.FailTime, ev)
	}
	return marked, act
}

// ClearVulnerable clears node's vulnerable mark at its predicted failure
// time failAt unless a newer prediction superseded it: spurious
// predictions, and those the model takes no action on, would otherwise
// pin the node vulnerable forever.
func (r *Run) ClearVulnerable(node int, failAt float64) {
	if n := r.cl.Node(node); n.State == cluster.Vulnerable && n.PredictedFailAt == failAt {
		r.cl.MarkHealthy(node)
	}
}

// MigrationStarted begins the live migration of ev's node at now. The
// application keeps running; the scheduler calls MigrationDone Plat.Theta
// later. Lead ≥ θ guarantees completion before the failure unless a
// p-ckpt episode aborts the migration first.
func (r *Run) MigrationStarted(now float64, ev failure.Event) *policy.Migration {
	m := r.st.StartMigration(ev)
	if r.Trace != nil {
		r.record(now, trace.MigrationStart, ev.Node, fmt.Sprintf("theta=%.1fs", r.Plat.Theta))
	}
	r.cl.MarkMigrating(ev.Node)
	return m
}

// MigrationDone completes migration m at now unless it was aborted
// meanwhile: the predicted failure is avoided.
func (r *Run) MigrationDone(now float64, m *policy.Migration) {
	ev := m.Ev // FinishMigration recycles m
	if !r.st.FinishMigration(m) {
		return
	}
	r.Res.Migrations++
	r.record(now, trace.MigrationDone, ev.Node, "")
	// The application dilates slightly while migrating.
	r.Res.Overheads.Checkpoint += r.Config.LM.DilationSeconds(r.Plat.PerNodeGB)
	if r.cl.Node(ev.Node).State == cluster.Migrating {
		r.cl.MarkHealthy(ev.Node)
	}
	if ev.Kind == failure.KindPrediction {
		r.st.MarkAvoided(ev.ID)
		r.Res.Avoided++
		r.st.ForgetPrediction(ev.ID)
	}
}

// EpisodeOpened opens a coordinated prioritized checkpoint at now for the
// prediction first. Phase 1 serves the vulnerable nodes serially by
// lead-time priority with uncontended PFS access (NextVulnerable,
// VulnerableWritten); phase 2 commits the rest at aggregate bandwidth
// (EpisodeServed, EpisodeCommitted). The application is blocked
// throughout, and a failure abandons the remainder. A p-ckpt request
// supersedes in-flight migrations (Fig. 5): they abort, and their nodes
// join the queue as vulnerable.
func (r *Run) EpisodeOpened(now float64, first failure.Event) {
	r.Res.ProactiveCkpts++
	r.record(now, trace.EpisodeStart, first.Node, "")
	r.epBegin = now
	r.ep = r.st.BeginEpisode(r.Progress)
	r.ep.Q.Push(first.FailTime, first)
	r.st.AbortMigrations(r.hooks.abortMigration)
	r.Met.EpisodeWidth.Observe(float64(r.cl.AtRisk()))
}

// migrationAborted accounts one migration the opening episode superseded
// and queues its node for phase 1.
func (r *Run) migrationAborted(ev failure.Event) {
	r.Res.AbortedMigrations++
	r.record(r.epBegin, trace.MigrationAborted, ev.Node, "superseded by p-ckpt")
	if r.cl.Node(ev.Node).State == cluster.Migrating {
		r.cl.AbortMigration(ev.Node, ev.FailTime)
	}
	r.ep.Q.Push(ev.FailTime, ev)
}

// NextVulnerable takes the next vulnerable node off the live episode's
// queue; the scheduler waits out its prioritized write
// (Plat.SingleNodePFSWrite) and calls VulnerableWritten. It reports false
// once the queue is empty or a failure abandoned the episode.
func (r *Run) NextVulnerable() bool {
	if r.ep.Q.Len() == 0 || r.ep.Abandoned {
		return false
	}
	_, r.epEv = r.ep.Q.Pop()
	return true
}

// VulnerableWritten settles at now the prioritized write of the node
// NextVulnerable took.
func (r *Run) VulnerableWritten(now float64) {
	ep, ev := r.ep, r.epEv
	if r.Inj.PFSWriteFails() {
		// The write tore. If the remaining lead time still covers another
		// attempt, the node re-enters the lead-time priority queue;
		// otherwise its prediction goes unserved.
		r.Res.PFSWriteFailures++
		if ev.Kind == failure.KindPrediction && now+r.Plat.SingleNodePFSWrite <= ev.FailTime {
			ep.Q.Push(ev.FailTime, ev)
		}
		return
	}
	ep.Committed++
	r.Met.CommitLat.Observe(now - r.epBegin)
	r.record(now, trace.VulnerableCommit, ev.Node, "")
	r.cl.RecordPFSCheckpoint(ev.Node, ep.StartProgress)
	if r.cl.Node(ev.Node).State == cluster.Vulnerable {
		r.cl.MarkHealthy(ev.Node)
	}
	if ev.Kind == failure.KindPrediction && now <= ev.FailTime {
		// The vulnerable node's state reached the PFS before its failure:
		// the failure is mitigated.
		r.st.Mitigate(ev.ID, ep.StartProgress)
		r.Met.LeadConsumed.Observe(now - (ev.FailTime - ev.Lead))
		r.Met.LeadMargin.Observe(ev.FailTime - now)
	}
}

// EpisodeServed ends phase 1. ok is false when a failure abandoned the
// episode, which is closed then. Otherwise phase 2's pfs-commit
// broadcast has the healthy nodes write together: tr is their collective
// transfer (tr.Nodes == 0 when every node committed in phase 1), which
// the scheduler waits out before EpisodeCommitted, or EpisodeAbandoned
// when a failure voids the wait.
func (r *Run) EpisodeServed() (tr iomodel.Transfer, ok bool) {
	if r.ep.Abandoned {
		r.EpisodeAbandoned()
		return tr, false
	}
	if healthy := r.Plat.Nodes - r.ep.Committed; healthy > 0 {
		tr = r.Config.IO.PFSWriteTransfer(healthy, r.Plat.PerNodeGB)
	}
	r.epTr = tr
	return tr, true
}

// EpisodeAbandoned closes an episode a failure cut short.
func (r *Run) EpisodeAbandoned() {
	r.Met.EpisodesAbandoned.Inc()
	r.closeEpisode()
}

// EpisodeCommitted settles the episode's phase-2 write at now and closes
// the episode. A failed collective write commits no full checkpoint; the
// phase-1 mitigations stand, since those nodes' states did reach the
// PFS.
func (r *Run) EpisodeCommitted(now float64) {
	ep := r.ep
	if r.epTr.Nodes > 0 {
		r.Met.PFSGBs.Observe(r.epTr.GBs)
	}
	if r.Inj.PFSWriteFails() {
		r.Res.PFSWriteFailures++
	} else {
		r.commitFullPFS(ep.StartProgress)
		if r.Inj.CorruptCommit() {
			r.st.MarkCorrupt(ep.StartProgress)
		}
		r.st.MarkRescheduled()
	}
	r.Met.EpisodeDur.Observe(now - r.epBegin)
	if r.Trace != nil {
		r.record(now, trace.EpisodeEnd, -1, fmt.Sprintf("blocked=%.1fs committed=%d", now-r.epBegin, ep.Committed))
	}
	r.closeEpisode()
}

// closeEpisode ends the live episode, completed or abandoned alike.
func (r *Run) closeEpisode() {
	r.st.EndEpisode()
	r.ep = nil
}

// SafeguardStarted opens M1's just-in-time checkpoint at now: every node
// writes to the PFS synchronously, racing the predicted failure. It
// reports false when one is in flight already, which covers this
// prediction too. Otherwise the scheduler blocks for Plat.FullPFSWrite
// and calls SafeguardWritten.
func (r *Run) SafeguardStarted(now float64) bool {
	if r.safeguarding {
		return false
	}
	r.safeguarding = true
	r.Res.ProactiveCkpts++
	r.record(now, trace.SafeguardStart, -1, "")
	r.sgBegan, r.sgStart = now, r.Progress
	return true
}

// SafeguardWritten settles the safeguard's write at now; ok is false when
// the failure won the race (or rolled the run back). A committed
// safeguard mitigates every outstanding prediction whose failure has not
// struck yet. A write the platform failed, after blocking the application
// for its full duration, commits nothing and mitigates nothing.
func (r *Run) SafeguardWritten(now float64, ok bool) {
	r.safeguarding = false
	if !ok {
		return
	}
	if r.Inj.PFSWriteFails() {
		r.Res.PFSWriteFailures++
		r.record(now, trace.SafeguardEnd, -1, "write failed (injected)")
		return
	}
	r.commitFullPFS(r.sgStart)
	if r.Inj.CorruptCommit() {
		r.st.MarkCorrupt(r.sgStart)
	}
	r.st.MarkRescheduled()
	r.record(now, trace.SafeguardEnd, -1, "")
	r.sgT = now
	r.Met.SafeguardDur.Observe(now - r.sgBegan)
	if r.Plat.FullPFSWrite > 0 {
		r.Met.PFSGBs.Observe(float64(r.Plat.Nodes) * r.Plat.PerNodeGB / r.Plat.FullPFSWrite)
	}
	r.st.EachPrediction(r.hooks.mitigate)
}

// safeguardMitigates marks one outstanding prediction mitigated if its
// failure has not struck by the safeguard's commit at sgT.
func (r *Run) safeguardMitigates(id int64, pi policy.Prediction) {
	if pi.FailAt >= r.sgT {
		r.st.Mitigate(id, r.sgStart)
		r.Met.LeadConsumed.Observe(r.sgT - (pi.FailAt - pi.Lead))
		r.Met.LeadMargin.Observe(pi.FailAt - r.sgT)
	}
}

// Recovery is one failure's restart, which the scheduler waits out:
// Corrupted torn restores, then the restore itself, which Cascade may
// void and RestartFailed repeat, then Recovered.
type Recovery struct {
	// Node is the failed node.
	Node int
	// Seconds is one restore's duration. GB is its PFS read volume, or 0
	// for the BB-assisted restore, which reads node-local burst buffers.
	Seconds, GB float64
	// Corrupted counts the checkpoint candidates discovered corrupt: each
	// cost a torn read of full restore length before the clean one.
	Corrupted int

	began             float64
	attempt, cascades int
}

// FailureStruck handles a failure striking ev.Node at now: classify it
// (mitigated by a proactive checkpoint, or unhandled), resolve the
// restart point, roll progress back, then replace the node. It returns
// the recovery the scheduler must wait out, or ok=false when the spare
// pool is exhausted: the resource manager cannot re-host the failed
// rank, so the failure is job-fatal and the run ends truncated at now,
// no recovery charged.
func (r *Run) FailureStruck(now float64, ev failure.Event) (rc Recovery, ok bool) {
	r.Res.Failures++
	if ev.Lead > 0 {
		r.Res.Predicted++
	}
	out := r.Policy.OnFailure(r.st, ev)
	if out.MigrationAborted {
		r.Res.AbortedMigrations++
	}
	r.cl.Fail(ev.Node)
	if out.Mitigated {
		r.Res.Mitigated++
	}
	// Best restart point: the proactive commit that mitigated this
	// failure, or the newest consistent periodic checkpoint, whichever is
	// fresher. On a degraded platform, candidates discovered corrupt at
	// restore time are discarded in favour of older generations.
	q, fullPFSRestore, corrupted := r.st.ResolveRestart(r.cl.RecoverableProgress(ev.Node), out)
	if corrupted > 0 {
		r.Res.CorruptRestarts += corrupted
		r.Inj.ObserveCorruptRestarts(corrupted)
		// The checkpoint records claiming the discarded generations are
		// lies now; no later restart may try them again.
		r.cl.ClampCheckpoints(q)
	}
	rc = Recovery{Node: ev.Node, Seconds: r.Plat.RecoveryBB, Corrupted: corrupted, began: now}
	if fullPFSRestore {
		// Recovering from a proactive checkpoint pulls every node's state
		// from the PFS (Sec. II), which is what makes recovery visible in
		// P1's overhead breakdown.
		rc.Seconds = r.Plat.RecoveryPFS
		rc.GB = float64(r.Plat.Nodes) * r.Plat.PerNodeGB
	}
	loss := 0.0
	if r.Progress > q {
		loss = r.Progress - q
		r.Res.Recompute += loss
		r.Progress = q
	}
	r.Met.RecomputeLoss.Observe(loss)
	if fullPFSRestore && rc.Seconds > 0 {
		r.Met.PFSGBs.Observe(rc.GB / rc.Seconds)
	}
	if r.Trace != nil {
		outcome := "unhandled"
		if out.Mitigated {
			outcome = "mitigated"
		}
		r.record(now, trace.Failure, ev.Node, fmt.Sprintf("%s loss=%.0fs", outcome, loss))
	}
	if err := r.cl.Replace(ev.Node); err != nil {
		r.Res.Truncated = true
		return rc, false
	}
	return rc, true
}

// Cascade draws whether a secondary failure inside the restore window
// voids the partial restore, up to faultinject.MaxCascadeDepth per
// recovery: on a strike the scheduler waits out the voided fraction frac
// of the restore, then draws again. Every restore draws, even at the
// depth cap, so the fault plan's draws stay in step on every tier.
func (r *Run) Cascade(rc *Recovery) (frac float64, struck bool) {
	if strike, frac := r.Inj.CascadeRecovery(); strike && rc.cascades < faultinject.MaxCascadeDepth {
		rc.cascades++
		r.Res.Cascades++
		return frac, true
	}
	return 0, false
}

// RestartFailed draws whether the restart after a completed restore
// fails: a failed attempt charges its deterministic doubling backoff, idle
// waiting before the scheduler restores again.
func (r *Run) RestartFailed(rc *Recovery) (backoff float64, failed bool) {
	fail, backoff := r.Inj.RestartAttemptFails(rc.attempt)
	if !fail {
		return 0, false
	}
	rc.attempt++
	r.Res.RestartRetries++
	return backoff, true
}

// Recovered ends recovery rc at now.
func (r *Run) Recovered(now float64, rc *Recovery) {
	if rc.cascades > 0 {
		r.Inj.ObserveCascadeDepth(rc.cascades)
	}
	r.Met.RecoveryDur.Observe(now - rc.began)
	r.record(now, trace.RecoveryDone, rc.Node, "")
}

// Finished ends the run at now, completed or truncated.
func (r *Run) Finished(now float64) {
	r.Res.WallSeconds = now
	if r.Res.Truncated {
		r.record(now, trace.Truncated, -1, "spare pool exhausted")
		return
	}
	r.record(now, trace.Complete, -1, "")
}

// Killed ends the run at now as its machine kills it mid-flight (a tenant
// crash): truncated, with the accounting so far.
func (r *Run) Killed(now float64) {
	r.Res.Truncated = true
	r.Res.WallSeconds = now
	r.record(now, trace.Truncated, -1, "tenant crash")
}
