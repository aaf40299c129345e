package machine

import (
	"fmt"

	"pckpt/internal/faultinject"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/rng"
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
	// instantaneous ceiling, brownouts included).
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
// configuration and each job's step-tier cell, prepared once and shared
// by every tenant start, crash readmission and solo baseline of the
// runs that simulate it.
type prepared struct {
	cfg   Config
	cells []*stepsim.Cell
}

// prepare defaults and validates cfg and prepares its jobs' cells. It
// panics on an invalid cohort.
func prepare(cfg Config) *prepared {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &prepared{cfg: cfg, cells: make([]*stepsim.Cell, len(cfg.Jobs))}
	for i, j := range cfg.Jobs {
		c, err := stepsim.Prepare(stepsim.Config{Model: j.Model, Config: j.Platform})
		if err != nil {
			panic(fmt.Errorf("machine: job %d: %w", i, err))
		}
		p.cells[i] = c
	}
	return p
}

// simulate runs the prepared cohort once from seed.
func (p *prepared) simulate(seed uint64) Result {
	cfg := p.cfg
	eng := sim.NewEngine()
	eng.SetWatchdog(uint64(len(cfg.Jobs))*sim.RunEventBudget, 0)
	arb := NewBandwidthArbiter(eng, cfg.PFSCeilingGBs, cfg.MaxConcurrentDrains, len(cfg.Jobs))

	fi := faultinject.NewMachine(cfg.Faults, rng.New(seed).Split(faultinject.MachineStreamKey))
	if bound := fi.MachineConfig().StarvationEscalationSeconds; bound > 0 {
		arb.SetStarvationEscalation(bound)
	}

	cells := p.cells
	res := Result{Jobs: make([]JobResult, len(cfg.Jobs))}
	arb.SetAllocObserver(func(t, total, ceiling float64) {
		if total > res.PeakAllocGBs {
			res.PeakAllocGBs = total
		}
		if cfg.OnAlloc != nil {
			cfg.OnAlloc(t, total, ceiling)
		}
	})

	tenants := make([]tenantState, len(cfg.Jobs))
	// started holds every app handle, crashed tenants' included, so their
	// node tables return to the pool once the engine drains.
	started := make([]*stepsim.AppHandle, 0, len(cfg.Jobs))
	var m struct {
		queue     []PendingJob
		freeNodes int
	}
	m.freeNodes = cfg.Nodes
	var tryAdmit func()
	tryAdmit = func() {
		for {
			idx, ok := cfg.Admission.Admit(m.queue, m.freeNodes)
			if !ok {
				return
			}
			p := m.queue[idx]
			m.queue = append(m.queue[:idx], m.queue[idx+1:]...)
			m.freeNodes -= p.Nodes
			now := eng.Now()
			res.Decisions = append(res.Decisions, RoutingDecision{Kind: DecisionAdmit, Job: p.Job, AtSeconds: now, Nodes: p.Nodes})
			jr := &res.Jobs[p.Job]
			ten := &tenants[p.Job]
			if ten.crashes == 0 {
				jr.StartSeconds = now
			}
			jr.QueueWaitSeconds += now - p.ArrivalSeconds
			// A readmitted job replays a fresh seed derived from its crash
			// count, so retry runs are independent draws but the whole
			// machine stays deterministic in (cfg, seed).
			jobSeed := sweep.Seed(seed, p.Job)
			if ten.crashes > 0 {
				jobSeed = sweep.Seed(jobSeed, ten.crashes)
			}
			ten.running = true
			ten.handle = cells[p.Job].Start(eng, jobSeed, stepsim.AppOptions{
				Arbiter:  arb,
				AppIndex: p.Job,
				Metrics:  cfg.Metrics,
				OnDone: func(r stats.RunResult) {
					jr.EndSeconds = eng.Now()
					jr.Run = r
					ten.running = false
					ten.finished = true
					m.freeNodes += p.Nodes
					tryAdmit()
				},
			})
			started = append(started, ten.handle)
		}
	}
	for i, j := range cfg.Jobs {
		res.Jobs[i] = JobResult{Job: i, Model: j.Model, ArrivalSeconds: j.ArrivalSeconds}
		i, j := i, j
		eng.After(j.ArrivalSeconds, "job-arrival", func() {
			m.queue = append(m.queue, PendingJob{Job: i, Nodes: j.need(), ArrivalSeconds: j.ArrivalSeconds})
			tryAdmit()
		})
	}
	if fi != nil {
		d := &faultDriver{
			eng: eng, arb: arb, fi: fi, cfg: &cfg, res: &res,
			tenants: tenants,
			requeue: func(j int, p PendingJob) {
				m.queue = append(m.queue, p)
				tryAdmit()
			},
			freeNodes: func(n int) { m.freeNodes += n },
			tryAdmit:  func() { tryAdmit() },
		}
		d.start()
	}
	eng.RunAll()
	eng.Release()
	// Not at abort: a crashed tenant's pending callbacks touch its record
	// until the engine drains. The solo baselines below reuse the records.
	for _, h := range started {
		h.Release()
	}
	// Makespan is the last departure, not the engine clock: the failure
	// streams park wake-events past each app's completion.
	for i := range res.Jobs {
		res.MakespanSeconds = max(res.MakespanSeconds, res.Jobs[i].EndSeconds)
	}

	// Solo baselines: the same job, platform, and seed on an idle
	// machine — the slowdown denominator.
	for i := range res.Jobs {
		jr := &res.Jobs[i]
		solo := cells[i].Run(sweep.Seed(seed, i), nil)
		jr.SoloWallSeconds = solo.WallSeconds
		if solo.WallSeconds > 0 {
			jr.SlowdownX = jr.Run.WallSeconds / solo.WallSeconds
		}
		jr.StarvationSeconds = arb.StarvationSeconds(i)
		jr.MaxStarvationStretchSeconds = arb.MaxStarvationStretchSeconds(i)
	}
	res.Escalations = arb.EscalationCount()
	observeMachineMetrics(cfg, &res)
	return res
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
