package machine

import (
	"fmt"
	"sync"

	"pckpt/internal/faultinject"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/sim"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
	"pckpt/internal/sweep"
)

// JobSpec is one application submitted to the machine: a model from the
// catalogue on its own platform cell, arriving at ArrivalSeconds.
type JobSpec struct {
	// Model is the C/R policy the job runs.
	Model policy.ID
	// Platform is the job's tier-independent platform configuration.
	Platform platform.Config
	// ArrivalSeconds is when the job enters the admission queue.
	ArrivalSeconds float64
}

// need returns the node count the job occupies while running: its
// application nodes plus its private spare pool. An unbounded spare
// pool (SpareNodes zero) reserves nothing — the solo tiers model those
// spares as free, so the machine does too.
func (j JobSpec) need() int {
	n := j.Platform.App.Nodes
	if j.Platform.SpareNodes > 0 {
		n += j.Platform.SpareNodes
	}
	return n
}

// Config parameterises one shared-machine simulation.
type Config struct {
	// Jobs is the cohort of applications contending for the machine.
	Jobs []JobSpec
	// Nodes is the machine's node pool; a job occupies its application
	// nodes plus spares while running. Zero defaults to the sum of all
	// job needs (every job fits concurrently — contention is then purely
	// over bandwidth).
	Nodes int
	// PFSCeilingGBs is the file-system-wide bandwidth ceiling shared by
	// all tenants. Zero defaults to the first job's I/O model ceiling.
	PFSCeilingGBs float64
	// MaxConcurrentDrains bounds how many BB→PFS drains run at once
	// machine-wide. Zero defaults to the first job's I/O drain
	// concurrency.
	MaxConcurrentDrains int
	// Admission decides when queued jobs start; nil defaults to FIFO.
	Admission AdmissionPolicy
	// Faults is the machine-scope fault plan: PFS brownout/blackout
	// windows, drain-slot outages, whole-tenant crashes with admission
	// requeue, and the starvation watchdog. The zero value is a healthy
	// machine — Simulate is then bit-identical to the plan not existing.
	Faults faultinject.MachineConfig
	// Racks groups jobs into fault domains: Racks[i] is job i's rack, and
	// one crash draw strikes every running tenant of the struck rack.
	// Empty defaults to each job in its own rack (uncorrelated crashes).
	Racks []int
	// Metrics, when non-nil, receives machine-level metrics under the
	// "machine." prefix (plus each job's own step-tier metrics).
	Metrics *metrics.Registry
	// OnAlloc, when non-nil, observes every bandwidth repricing — the
	// conservation probe (total allocation never exceeds the
	// instantaneous ceiling, brownouts included). A brownout or
	// drain-outage edge that finds no flow active or queued prices
	// nothing and calls it not at all.
	OnAlloc func(t, totalGBs, ceilingGBs float64)
}

// WithDefaults returns a copy with zero fields defaulted; job platforms
// are defaulted too so node needs and I/O ceilings are derivable.
// Simulate applies it; external validators (the scenario compiler) call
// it to see the effective configuration Validate will judge.
func (c Config) WithDefaults() Config {
	jobs := make([]JobSpec, len(c.Jobs))
	copy(jobs, c.Jobs)
	c.Jobs = jobs
	for i := range c.Jobs {
		c.Jobs[i].Platform = c.Jobs[i].Platform.WithDefaults()
	}
	if len(c.Jobs) > 0 {
		io := c.Jobs[0].Platform.IO.Config()
		if c.PFSCeilingGBs == 0 {
			c.PFSCeilingGBs = io.AggregatePFSCeilingGBs
		}
		if c.MaxConcurrentDrains == 0 {
			c.MaxConcurrentDrains = io.DrainConcurrency
		}
	}
	if c.Nodes == 0 {
		for _, j := range c.Jobs {
			c.Nodes += j.need()
		}
	}
	if c.Admission == nil {
		c.Admission = FIFO{}
	}
	return c
}

// Validate reports a configuration error, or nil. Call on the defaulted
// config.
func (c Config) Validate() error {
	if len(c.Jobs) == 0 {
		return fmt.Errorf("machine: no jobs")
	}
	if c.PFSCeilingGBs <= 0 {
		return fmt.Errorf("machine: non-positive PFS ceiling %g", c.PFSCeilingGBs)
	}
	if c.MaxConcurrentDrains <= 0 {
		return fmt.Errorf("machine: non-positive drain concurrency %d", c.MaxConcurrentDrains)
	}
	for i, j := range c.Jobs {
		if j.ArrivalSeconds < 0 {
			return fmt.Errorf("machine: job %d arrives at negative time %g", i, j.ArrivalSeconds)
		}
		sc := stepsim.Config{Model: j.Model, Config: j.Platform}
		if err := sc.Validate(); err != nil {
			return fmt.Errorf("machine: job %d: %w", i, err)
		}
		if need := j.need(); need > c.Nodes {
			return fmt.Errorf("machine: job %d needs %d nodes (app+spares), machine has %d", i, need, c.Nodes)
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if len(c.Racks) > 0 {
		if len(c.Racks) != len(c.Jobs) {
			return fmt.Errorf("machine: %d rack assignments for %d jobs", len(c.Racks), len(c.Jobs))
		}
		for i, r := range c.Racks {
			if r < 0 || r >= len(c.Jobs) {
				return fmt.Errorf("machine: job %d assigned to rack %d (want 0..%d)", i, r, len(c.Jobs)-1)
			}
		}
	}
	return nil
}

// JobResult is one job's outcome on the shared machine, alongside its
// solo baseline on an otherwise-idle machine.
type JobResult struct {
	// Job indexes Config.Jobs; Model echoes the job's policy.
	Job   int
	Model policy.ID
	// ArrivalSeconds, StartSeconds, and EndSeconds are machine times.
	ArrivalSeconds float64
	StartSeconds   float64
	EndSeconds     float64
	// QueueWaitSeconds is the admission delay (start minus arrival).
	QueueWaitSeconds float64
	// StarvationSeconds is the total time the job had a runnable PFS
	// transfer allocated zero bandwidth.
	StarvationSeconds float64
	// MaxStarvationStretchSeconds is the job's longest single stretch
	// with a runnable transfer at zero bandwidth — the quantity the
	// starvation watchdog bounds.
	MaxStarvationStretchSeconds float64
	// Crashes counts machine-fault tenant crashes that struck this job
	// while it was running (each costs a backoff and a readmission, or —
	// past the retry bound — ends the job truncated).
	Crashes int
	// SoloWallSeconds is the same job's wall time run alone (same
	// platform, the job's first seed, no contention). SlowdownX is the
	// final attempt's contended wall time (Run.WallSeconds) over it,
	// exactly 1 when the machine never contends. It is not bounded
	// below by 1: contention can move a checkpoint so that a failure
	// costs less recomputation (clean tenants have read 0.999994×); a
	// tenant readmitted after a crash restarts from zero progress under
	// a fresh seed, so its final attempt is a different run from the
	// solo one; and a truncated tenant's Run covers only its span
	// before it gave up. The last two can read well below 1.
	SoloWallSeconds float64
	SlowdownX       float64
	// Run is the job's full step-tier accounting under contention.
	Run stats.RunResult
}

// Result is one shared-machine simulation's outcome.
type Result struct {
	// Jobs holds per-job outcomes, indexed like Config.Jobs.
	Jobs []JobResult
	// Decisions is the admission log in decision order.
	Decisions []RoutingDecision
	// MakespanSeconds is when the last job finished; PeakAllocGBs the
	// highest total bandwidth allocation any repricing reached.
	MakespanSeconds float64
	PeakAllocGBs    float64
	// Machine-fault accounting, all zero when the fault plan is
	// disabled: brownout windows opened (and their total span), drain
	// outages, tenant-crash strikes, crash requeues granted, and
	// starvation-watchdog escalations.
	Brownouts       int
	BrownoutSeconds float64
	DrainOutages    int
	TenantCrashes   int
	CrashRequeues   int
	Escalations     int
}

// Simulate runs the whole cohort on one shared engine and returns
// per-job and machine-wide outcomes. Deterministic in (cfg, seed): jobs
// are admitted by cfg.Admission as nodes free up, all PFS transfers
// contend at a shared BandwidthArbiter, and each job runs bit-identical
// to a solo run except where contention stretches its transfers. Job i
// draws seed sweep.Seed(seed, i), the same derivation the sweep
// runners use.
func Simulate(cfg Config, seed uint64) Result {
	return prepare(cfg).simulate(seed)
}

// prepared is a cohort ready to simulate: the defaulted, validated
// configuration, each job's step-tier cell, prepared once and shared by
// every tenant start, crash readmission and solo baseline of the runs
// that simulate it, and the rack map.
type prepared struct {
	cfg   Config
	cells []*stepsim.Cell
	// racks maps job → fault domain (cfg.Racks, or each job its own);
	// numRacks is one past the highest.
	racks    []int
	numRacks int
}

// prepare defaults and validates cfg and prepares its jobs' cells. It
// panics on an invalid cohort.
func prepare(cfg Config) *prepared {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &prepared{cfg: cfg, cells: make([]*stepsim.Cell, len(cfg.Jobs)), racks: cfg.Racks}
	for i, j := range cfg.Jobs {
		c, err := stepsim.Prepare(stepsim.Config{Model: j.Model, Config: j.Platform})
		if err != nil {
			panic(fmt.Errorf("machine: job %d: %w", i, err))
		}
		p.cells[i] = c
	}
	if len(p.racks) == 0 {
		p.racks = make([]int, len(cfg.Jobs))
		for i := range p.racks {
			p.racks[i] = i
		}
	}
	for _, r := range p.racks {
		p.numRacks = max(p.numRacks, r+1)
	}
	return p
}

// run is a machine run record: everything one simulation of a cohort
// needs besides its result — the engine, the arbiter with its flow
// records, the fault driver with its alarm callbacks bound, the tenants
// with their hooks bound, and the admission queue, handle list and
// decision log. Records are recycled through runPool and reset in place
// by each run; a pooled record references no cohort.
type run struct {
	p    *prepared
	seed uint64
	eng  *sim.Engine
	arb  BandwidthArbiter
	// faults runs the machine-scope fault plan; its injector is nil when
	// the plan is disabled.
	faults  faultDriver
	tenants []*tenant
	// queue holds the jobs awaiting admission in arrival order;
	// freeNodes counts the unoccupied nodes.
	queue     []PendingJob
	freeNodes int
	// started holds every app handle, crashed tenants' included, so their
	// step-tier records return to the pool once the engine drains.
	started []*stepsim.AppHandle
	// decisions is the admission log; the result gets a copy.
	decisions []RoutingDecision
	// res is the result being built; its Jobs and Decisions are the two
	// slices a run allocates, and finish hands res over whole.
	res Result
	// observeFn is observeAlloc, bound once.
	observeFn func(t, totalGBs, ceilingGBs float64)
}

// runPool recycles run records across the runs of a sweep, so each sweep
// worker runs on one warm record, and across Simulate calls.
var runPool = sync.Pool{New: func() any { return newRun() }}

// simulate runs the cohort once from seed on a pooled record. A run that
// panics drops its record.
func (p *prepared) simulate(seed uint64) Result {
	r := runPool.Get().(*run)
	res := r.simulate(p, seed)
	runPool.Put(r)
	return res
}

// newRun makes a run record and binds its hooks.
func newRun() *run {
	r := &run{eng: sim.NewEngine()}
	r.observeFn = r.observeAlloc
	r.faults.bind(r)
	return r
}

// tenant is one job on a run record: its lifecycle state, zeroed after
// every run, and its arrival, requeue and completion hooks, bound once
// when the record grows to the job, so neither scheduling them nor
// starting the job's app allocates.
type tenant struct {
	tenantState
	r   *run
	job int

	arriveFn, requeueFn func()
	departFn            func(stats.RunResult)
}

// tenantState is the driver's per-job lifecycle bookkeeping: the live
// app handle while running, and the crash count driving retry seeds,
// backoff, and the give-up bound.
type tenantState struct {
	handle   *stepsim.AppHandle
	running  bool
	finished bool
	crashes  int
}

// simulate runs the prepared cohort once from seed on r.
func (r *run) simulate(p *prepared, seed uint64) Result {
	r.begin(p, seed)
	r.eng.RunAll()
	return r.finish()
}

// begin resets r for one run of the prepared cohort from seed and
// schedules the run's first events: the arrivals, then the fault plan's
// first gaps.
func (r *run) begin(p *prepared, seed uint64) {
	cfg := &p.cfg
	n := len(cfg.Jobs)
	r.p, r.seed = p, seed
	r.eng.SetWatchdog(uint64(n)*sim.RunEventBudget, 0)
	r.arb.reset(r.eng, cfg.PFSCeilingGBs, cfg.MaxConcurrentDrains, n)
	fi := r.faults.reset(cfg.Faults, seed)
	if bound := fi.MachineConfig().StarvationEscalationSeconds; bound > 0 {
		r.arb.SetStarvationEscalation(bound)
	}
	r.res = Result{Jobs: make([]JobResult, n)}
	r.arb.SetAllocObserver(r.observeFn)
	r.queue = r.queue[:0]
	r.freeNodes = cfg.Nodes
	r.decisions = r.decisions[:0]
	for len(r.tenants) < n {
		t := &tenant{r: r, job: len(r.tenants)}
		t.arriveFn, t.requeueFn, t.departFn = t.arrive, t.requeue, t.depart
		r.tenants = append(r.tenants, t)
	}
	for i, j := range cfg.Jobs {
		r.res.Jobs[i] = JobResult{Job: i, Model: j.Model, ArrivalSeconds: j.ArrivalSeconds}
		r.eng.After(j.ArrivalSeconds, "job-arrival", r.tenants[i].arriveFn)
	}
	if fi != nil {
		r.faults.start()
	}
}

// finish completes a run whose engine has drained: it releases the
// tenants' app records, runs the solo baselines, and hands the result
// over, leaving the record clear for the next run.
func (r *run) finish() Result {
	p := r.p
	r.eng.Reset() // drained: nothing is pending
	// Not at abort: a crashed tenant's pending callbacks touch its record
	// until the engine drains. The solo baselines below reuse the records.
	for i, h := range r.started {
		h.Release()
		r.started[i] = nil
	}
	r.started = r.started[:0]
	res := &r.res
	// Makespan is the last departure, not the engine clock: the failure
	// streams park wake-events past each app's completion.
	for i := range res.Jobs {
		res.MakespanSeconds = max(res.MakespanSeconds, res.Jobs[i].EndSeconds)
	}

	// Solo baselines: the same job, platform, and seed on an idle
	// machine — the slowdown denominator.
	for i := range res.Jobs {
		jr := &res.Jobs[i]
		solo := p.cells[i].Run(sweep.Seed(r.seed, i), nil)
		jr.SoloWallSeconds = solo.WallSeconds
		if solo.WallSeconds > 0 {
			jr.SlowdownX = jr.Run.WallSeconds / solo.WallSeconds
		}
		jr.StarvationSeconds = r.arb.StarvationSeconds(i)
		jr.MaxStarvationStretchSeconds = r.arb.MaxStarvationStretchSeconds(i)
	}
	res.Escalations = r.arb.EscalationCount()
	res.Decisions = append([]RoutingDecision(nil), r.decisions...)
	observeMachineMetrics(p.cfg, res)
	out := r.res
	r.clear()
	return out
}

// clear drops everything the finished run referenced — the cohort (its
// cells, registry and observer), the result and the app handles — so a
// pooled record keeps no run alive, and zeroes the tenants' lifecycle
// state for the next run.
func (r *run) clear() {
	r.p = nil
	r.res = Result{}
	for _, t := range r.tenants {
		t.tenantState = tenantState{}
	}
}

// observeAlloc is the arbiter's repricing observer: it keeps the peak
// allocation and forwards to Config.OnAlloc.
func (r *run) observeAlloc(t, total, ceiling float64) {
	if total > r.res.PeakAllocGBs {
		r.res.PeakAllocGBs = total
	}
	if on := r.p.cfg.OnAlloc; on != nil {
		on(t, total, ceiling)
	}
}

// tryAdmit admits queued jobs while the admission policy picks one,
// starting each job's app on the shared engine and arbiter.
func (r *run) tryAdmit() {
	cfg := &r.p.cfg
	for {
		idx, ok := cfg.Admission.Admit(r.queue, r.freeNodes)
		if !ok {
			return
		}
		p := r.queue[idx]
		r.queue = append(r.queue[:idx], r.queue[idx+1:]...)
		r.freeNodes -= p.Nodes
		now := r.eng.Now()
		r.decisions = append(r.decisions, RoutingDecision{Kind: DecisionAdmit, Job: p.Job, AtSeconds: now, Nodes: p.Nodes})
		jr := &r.res.Jobs[p.Job]
		t := r.tenants[p.Job]
		if t.crashes == 0 {
			jr.StartSeconds = now
		}
		jr.QueueWaitSeconds += now - p.ArrivalSeconds
		// A readmitted job replays a fresh seed derived from its crash
		// count, so retry runs are independent draws but the whole
		// machine stays deterministic in (cfg, seed).
		jobSeed := sweep.Seed(r.seed, p.Job)
		if t.crashes > 0 {
			jobSeed = sweep.Seed(jobSeed, t.crashes)
		}
		t.running = true
		t.handle = r.p.cells[p.Job].Start(r.eng, jobSeed, stepsim.AppOptions{
			Arbiter:  &r.arb,
			AppIndex: p.Job,
			Metrics:  cfg.Metrics,
			OnDone:   t.departFn,
		})
		r.started = append(r.started, t.handle)
	}
}

// arrive queues the tenant's job at its arrival time.
func (t *tenant) arrive() {
	j := &t.r.p.cfg.Jobs[t.job]
	t.r.queue = append(t.r.queue, PendingJob{Job: t.job, Nodes: j.need(), ArrivalSeconds: j.ArrivalSeconds})
	t.r.tryAdmit()
}

// depart is the tenant's completion hook: the job leaves the machine
// with its final result, and its nodes go back to the pool for the
// queued jobs.
func (t *tenant) depart(res stats.RunResult) {
	r := t.r
	jr := &r.res.Jobs[t.job]
	jr.EndSeconds = r.eng.Now()
	jr.Run = res
	t.running = false
	t.finished = true
	r.freeNodes += r.p.cfg.Jobs[t.job].need()
	r.tryAdmit()
}

// requeue re-enters a crashed tenant's job at the back of the admission
// queue once its backoff has passed.
func (t *tenant) requeue() {
	r := t.r
	now := r.eng.Now()
	nodes := r.p.cfg.Jobs[t.job].need()
	r.decisions = append(r.decisions, RoutingDecision{Kind: DecisionRequeue, Job: t.job, AtSeconds: now, Nodes: nodes})
	r.queue = append(r.queue, PendingJob{Job: t.job, Nodes: nodes, ArrivalSeconds: now})
	r.tryAdmit()
}

// observeMachineMetrics publishes machine-level outcomes to the
// registry under the "machine." prefix.
func observeMachineMetrics(cfg Config, res *Result) {
	r := cfg.Metrics
	if r == nil {
		return
	}
	queueWait := r.Histogram("machine.queue_wait_seconds")
	slowdown := r.Histogram("machine.slowdown_x")
	starve := r.Histogram("machine.starvation_seconds")
	stretch := r.Histogram("machine.max_starvation_stretch_seconds")
	crashes := r.Counter("machine.tenant_crashes")
	trunc := r.Counter("machine.jobs_truncated")
	peak := r.Gauge("machine.peak_alloc_gbs")
	for _, jr := range res.Jobs {
		queueWait.Observe(jr.QueueWaitSeconds)
		slowdown.Observe(jr.SlowdownX)
		starve.Observe(jr.StarvationSeconds)
		stretch.Observe(jr.MaxStarvationStretchSeconds)
		crashes.Add(float64(jr.Crashes))
		if jr.Run.Truncated {
			trunc.Inc()
		}
	}
	peak.Set(res.MakespanSeconds, res.PeakAllocGBs)
	r.Counter("machine.brownouts").Add(float64(res.Brownouts))
	r.Counter("machine.brownout_seconds").Add(res.BrownoutSeconds)
	r.Counter("machine.drain_outages").Add(float64(res.DrainOutages))
	r.Counter("machine.crash_requeues").Add(float64(res.CrashRequeues))
	r.Counter("machine.starvation_escalations").Add(float64(res.Escalations))
}

// SimulateN executes runs independent machine simulations (run r draws
// seed sweep.Seed(seed, r)) across workers goroutines, returning results
// indexed by run — identical for any worker count. A run that panics
// does not stop the others: SimulateN finishes every run, then panics on
// the caller's goroutine naming the failed seeds (Sweep ledgers them).
func SimulateN(cfg Config, runs int, seed uint64, workers int) []Result {
	out, failed := sweepRuns(cfg, runs, seed, workers)
	if len(failed) > 0 {
		panic(fmt.Sprintf("machine: %d of %d runs panicked: %+v", len(failed), runs, failed))
	}
	return out
}

// JobSummary is one job's sums over a sweep's completed runs.
type JobSummary struct {
	WallSeconds, SlowdownX, QueueWaitSeconds, StarvationSeconds, MaxStarvationStretchSeconds float64
	// Crashes sums the job's crashes; Truncated counts the runs it ended
	// truncated.
	Crashes, Truncated int
}

// Summary is a machine sweep summed over its completed runs, in run order.
type Summary struct {
	// Jobs holds per-job sums, indexed like Config.Jobs.
	Jobs []JobSummary
	// Machine-wide sums; PeakAllocGBs is the maximum instead.
	MakespanSeconds, PeakAllocGBs, BrownoutSeconds                     float64
	Brownouts, DrainOutages, TenantCrashes, CrashRequeues, Escalations int
	// Runs counts the completed runs; Failed ledgers the ones that panicked.
	Runs   int
	Failed []stats.FailedRun
}

// Mean divides a sum by the completed runs; with none it is 0, not NaN.
func (s Summary) Mean(sum float64) float64 {
	if s.Runs == 0 {
		return 0
	}
	return sum / float64(s.Runs)
}

// Sweep runs what SimulateN runs and sums the completed runs; a run that
// panics lands in Summary.Failed instead of stopping the sweep.
func Sweep(cfg Config, runs int, seed uint64, workers int) Summary {
	results, failed := sweepRuns(cfg, runs, seed, workers)
	s := Summary{Jobs: make([]JobSummary, len(cfg.Jobs)), Failed: failed}
	for _, res := range sweep.Completed(results, seed, failed) {
		s.Runs++
		for i, jr := range res.Jobs {
			j := &s.Jobs[i]
			j.WallSeconds += jr.Run.WallSeconds
			j.SlowdownX += jr.SlowdownX
			j.QueueWaitSeconds += jr.QueueWaitSeconds
			j.StarvationSeconds += jr.StarvationSeconds
			j.MaxStarvationStretchSeconds += jr.MaxStarvationStretchSeconds
			j.Crashes += jr.Crashes
			if jr.Run.Truncated {
				j.Truncated++
			}
		}
		s.MakespanSeconds += res.MakespanSeconds
		s.PeakAllocGBs = max(s.PeakAllocGBs, res.PeakAllocGBs)
		s.BrownoutSeconds += res.BrownoutSeconds
		s.Brownouts += res.Brownouts
		s.DrainOutages += res.DrainOutages
		s.TenantCrashes += res.TenantCrashes
		s.CrashRequeues += res.CrashRequeues
		s.Escalations += res.Escalations
	}
	return s
}

// sweepRuns is the sweep behind SimulateN and Sweep. It validates and
// prepares the cohort once, on the caller's goroutine, so an invalid
// cohort panics here instead of becoming one ledger entry per run, and
// drops the shared observers, which concurrent runs would race on;
// per-run introspection uses Simulate.
func sweepRuns(cfg Config, runs int, seed uint64, workers int) ([]Result, []stats.FailedRun) {
	cfg.Metrics = nil
	cfg.OnAlloc = nil
	p := prepare(cfg)
	desc := fmt.Sprintf("machine jobs=%d nodes=%d", len(p.cfg.Jobs), p.cfg.Nodes)
	return sweep.Run(runs, seed, workers, desc, p.simulate)
}
