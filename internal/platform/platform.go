// Package platform computes the paper's platform quantities — Eq. (2)'s
// σ, the LM threshold θ, BB/PFS write times, the asynchronous drain
// duration, and the two recovery paths — exactly once, from one unified
// configuration. Both simulation tiers (internal/crmodel at application
// granularity, internal/nodesim at node granularity) embed Config and
// consume Derived, so the quantities cannot drift between tiers: a
// matched pair of configurations yields byte-identical numbers by
// construction.
package platform

import (
	"fmt"
	"math"
	"sync"

	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/iomodel"
	"pckpt/internal/lm"
	"pckpt/internal/metrics"
	"pckpt/internal/workload"
)

// Config is the tier-independent platform configuration: application,
// failure system, I/O pricing, migration model, and predictor. The tiers
// embed it (adding only their model/policy selector and observers), so
// "defaults exactly like the other tier" is enforced by the type system.
type Config struct {
	// App is the application under test (Table I entry or custom).
	App workload.App
	// System supplies the failure distribution (Table III entry).
	System failure.System
	// SpareNodes is the reserve pool the resource manager backs the job
	// with: each node failure consumes one spare, and a failure arriving
	// after the pool is exhausted is job-fatal (the run ends truncated,
	// stats.RunResult.Truncated). Zero means effectively unbounded — the
	// paper's assumption that node recovery keeps spares available.
	SpareNodes int
	// IO prices every transfer; nil selects the default Summit model.
	IO *iomodel.Model
	// LM is the migration model; the zero value selects lm.Default().
	LM lm.Config
	// Leads is the lead-time model; nil selects the default mixture.
	Leads *failure.LeadTimeModel
	// LeadScale stretches lead times (1.0 if zero) — the variability
	// axis of Figs. 4 and 7.
	LeadScale float64
	// FNRate and FPRate configure the predictor. NOTE: the zero value
	// selects the defaults (0.125 / 0.18); to simulate a perfect
	// predictor set PerfectPredictor.
	FNRate, FPRate float64
	// PerfectPredictor forces FN = FP = 0.
	PerfectPredictor bool
	// OCIRefreshSeconds is how often the optimal checkpoint interval is
	// re-derived from the observed failure rate; zero selects hourly.
	OCIRefreshSeconds float64
	// AccuracyAwareSigma enables the extension the paper's Observation 9
	// proposes as future work: include the predictor's actual accuracy in
	// Eq. (2)'s σ, so the LM-assisted models stop overestimating their
	// coverage when the false-negative rate climbs. Off by default to
	// match the published models.
	AccuracyAwareSigma bool
	// Faults is the degraded-platform fault plan (checkpoint-write
	// failures, silent corruption, restart retries, recovery cascades).
	// The zero value is a perfect platform. See internal/faultinject.
	Faults faultinject.Config
	// Replay, when non-nil, replaces the parametric Weibull failure
	// source with a recorded failure trace (mined by internal/deshlog,
	// declared by an internal/scenario spec): both simulation tiers then
	// consume the trace through the same failure-stream interface. When
	// System is left zero it defaults to the trace's empirical rate, and
	// when Leads is left nil it defaults to the trace's mined lead-time
	// mixture, so σ, θ, and the OCI all track the replayed reality.
	Replay *failure.Replay
}

// The default I/O and lead-time models, built once and shared by every
// defaulted Config. Both are read-only after construction (their query
// methods never write, and nothing writes through the slices Matrix and
// Sequences expose), so sharing them across runs and goroutines is safe
// and saves rebuilding the Summit matrix on every run of a sweep.
var (
	defaultIO    = sync.OnceValue(func() *iomodel.Model { return iomodel.New(iomodel.DefaultSummit()) })
	defaultLeads = sync.OnceValue(failure.DefaultLeadTimes)
)

// WithDefaults returns a copy with zero fields defaulted. Idempotent.
func (c Config) WithDefaults() Config {
	if c.IO == nil {
		c.IO = defaultIO()
	}
	if c.LM == (lm.Config{}) {
		c.LM = lm.Default()
	}
	if c.Replay != nil && c.Replay.Validate() == nil {
		// Trace replay: the empirical trace, not a Table III row, is the
		// platform's failure reality — default the rate prior and the
		// lead-time mixture from it.
		if c.System == (failure.System{}) && c.App.Nodes > 0 {
			c.System = c.Replay.SyntheticSystem(c.App.Nodes)
		}
		if c.Leads == nil {
			c.Leads = c.Replay.LeadModel()
		}
	}
	if c.Leads == nil {
		c.Leads = defaultLeads()
	}
	if c.LeadScale == 0 {
		c.LeadScale = 1
	}
	if c.PerfectPredictor {
		c.FNRate, c.FPRate = 0, 0
	} else {
		if c.FNRate == 0 {
			c.FNRate = failure.DefaultFNRate
		}
		if c.FPRate == 0 {
			c.FPRate = failure.DefaultFPRate
		}
	}
	if c.OCIRefreshSeconds == 0 {
		c.OCIRefreshSeconds = 3600
	}
	c.Faults = c.Faults.WithDefaults()
	return c
}

// Validate reports a configuration error, or nil. The tiers call it
// after checking their own model/policy selector.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if err := c.App.Validate(); err != nil {
		return err
	}
	if err := c.System.Validate(); err != nil {
		return err
	}
	if err := c.LM.Validate(); err != nil {
		return err
	}
	// Each test is written to fail for NaN, which compares false with
	// everything and would pass a plain range check.
	switch {
	case !(c.LeadScale > 0) || math.IsInf(c.LeadScale, 1):
		return fmt.Errorf("platform: non-positive or non-finite lead scale %v", c.LeadScale)
	case !(c.FNRate >= 0 && c.FNRate <= 1):
		return fmt.Errorf("platform: FN rate %v outside [0, 1]", c.FNRate)
	case !(c.FPRate >= 0 && c.FPRate < 1):
		return fmt.Errorf("platform: FP rate %v outside [0, 1)", c.FPRate)
	case !(c.OCIRefreshSeconds >= 0) || math.IsInf(c.OCIRefreshSeconds, 1):
		return fmt.Errorf("platform: negative or non-finite OCI refresh period %v", c.OCIRefreshSeconds)
	case c.SpareNodes < 0:
		return fmt.Errorf("platform: negative spare-node count")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.Replay != nil {
		if err := c.Replay.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// SpareLimit returns the spare-pool size to back the cluster with:
// SpareNodes, or effectively unbounded when the field is zero.
func (c Config) SpareLimit() int {
	if c.SpareNodes <= 0 {
		return math.MaxInt32
	}
	return c.SpareNodes
}

// Theta returns the live-migration lead-time threshold for this
// configuration's application.
func (c Config) Theta() float64 {
	c = c.WithDefaults()
	return c.LM.Theta(c.App.PerNodeGB())
}

// SigmaLM returns the σ of Eq. (2) for a model that live-migrates: the
// fraction of failures avoidable by LM given the (scaled) lead-time
// distribution. Models without LM use σ = 0 — the tiers gate on their
// catalogue capability before calling this.
//
// Deliberately, σ uses the baseline false-negative rate rather than the
// configured one: the paper's Eq. (2) does not include the prediction
// accuracy factor (its Observation 9 calls adding it future work), which
// is exactly why the LM-assisted models overestimate their coverage and
// degrade faster as the false-negative rate climbs.
func (c Config) SigmaLM() float64 {
	c = c.WithDefaults()
	leads := c.Leads
	if c.LeadScale != 1 {
		leads = leads.Scaled(c.LeadScale)
	}
	fn := failure.DefaultFNRate
	if c.AccuracyAwareSigma {
		fn = c.FNRate
	}
	return leads.Sigma(c.Theta(), fn)
}

// StreamConfig builds the failure/prediction stream configuration both
// tiers inject, wired to an optional metrics registry.
func (c Config) StreamConfig(reg *metrics.Registry) failure.Config {
	c = c.WithDefaults()
	return failure.Config{
		System:    c.System,
		JobNodes:  c.App.Nodes,
		Leads:     c.Leads,
		LeadScale: c.LeadScale,
		FNRate:    c.FNRate,
		FPRate:    c.FPRate,
		Metrics:   reg,
		Replay:    c.Replay,
	}
}

// Derived is the full set of precomputed platform quantities (seconds /
// GB) a tier needs to price the simulation. It is a comparable struct:
// two configurations agree on the platform exactly when their Derived
// values compare equal (byte-identical float64s, no tolerance).
type Derived struct {
	// Nodes is the application's node count.
	Nodes int
	// ComputeSeconds is the required failure-free compute time.
	ComputeSeconds float64
	// PerNodeGB is the per-node checkpoint footprint.
	PerNodeGB float64
	// BBWrite is the synchronous burst-buffer write (t_BB).
	BBWrite float64
	// Drain is the asynchronous BB→PFS drain duration.
	Drain float64
	// Theta is the LM lead-time threshold θ.
	Theta float64
	// SigmaLM is Eq. (2)'s σ for LM-capable models (callers gate on the
	// catalogue capability and use 0 otherwise).
	SigmaLM float64
	// SingleNodePFSWrite is one node's uncontended PFS write (p-ckpt
	// phase 1).
	SingleNodePFSWrite float64
	// FullPFSWrite is the all-node contended PFS write (safeguard /
	// p-ckpt phase 2).
	FullPFSWrite float64
	// RecoveryBB is the unhandled-failure recovery path: surviving nodes
	// restore from BB while the replacement reads the PFS.
	RecoveryBB float64
	// RecoveryPFS is the mitigated-failure recovery path: all nodes
	// restore from the PFS.
	RecoveryPFS float64
	// Faults is the (defaulted) fault plan the tiers inject from.
	Faults faultinject.Config
}

// Derive computes every platform quantity from the configuration.
func (c Config) Derive() Derived {
	c = c.WithDefaults()
	perNode := c.App.PerNodeGB()
	nodes := c.App.Nodes
	return Derived{
		Nodes:              nodes,
		ComputeSeconds:     c.App.ComputeSeconds(),
		PerNodeGB:          perNode,
		BBWrite:            c.IO.BBWriteTime(perNode),
		Drain:              c.IO.DrainTime(nodes, perNode),
		Theta:              c.LM.Theta(perNode),
		SigmaLM:            c.SigmaLM(),
		SingleNodePFSWrite: c.IO.SingleNodePFSWriteTime(perNode),
		FullPFSWrite:       c.IO.PFSWriteTime(nodes, perNode),
		RecoveryBB:         math.Max(c.IO.BBReadTime(perNode), c.IO.SingleNodePFSReadTime(perNode)),
		RecoveryPFS:        c.IO.PFSReadTime(nodes, perNode),
		Faults:             c.Faults,
	}
}
