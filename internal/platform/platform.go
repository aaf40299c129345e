// Package platform derives every input a simulation run reads from one
// unified configuration, exactly once: the paper's platform quantities
// (Eq. (2)'s σ, the LM threshold θ, BB/PFS write times with the p-ckpt
// episode's phase-1 price among them, the asynchronous drain duration,
// and the two recovery paths) through Derive, and the run's seeded
// failure stream and fault plan through Sources. All three simulation tiers
// (internal/crmodel at application granularity, internal/nodesim at node
// granularity, internal/stepsim on engine callbacks) embed Config and
// consume both, so the inputs cannot drift between tiers: a matched pair
// of configurations yields byte-identical numbers and draws by
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
	"pckpt/internal/rng"
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
// distribution. Models without LM use σ = 0: policy.ID.Sigma gates
// Derived.SigmaLM on the model's capability.
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

// Sources seeds one run's stochastic inputs: the failure/prediction
// stream draws from the seed's Split(1) substream, the fault plan from
// Split(faultinject.StreamKey). Every tier starts a run here or at
// Plan.Seed, which Sources calls, so one seed delivers the same failures
// and faults on each; reg, when non-nil, meters both. A plan with every
// rate at zero consumes no draws, so such a run is bit-identical to one
// with injection disabled.
func (c Config) Sources(seed uint64, reg *metrics.Registry) (failure.EventSource, *faultinject.Injector) {
	p, err := c.Plan()
	if err != nil {
		panic(err)
	}
	return p.Seed(new(Inputs), seed, reg)
}

// Plan is a cell's stochastic-input plan: its failure stream's plan and
// its defaulted fault plan, validated and derived once. Seed starts each
// run's sources from it. A Plan is read-only, so concurrent runs of a
// cell share it.
type Plan struct {
	stream *failure.Plan
	faults faultinject.Config
}

// Plan validates the configuration's failure stream and derives what
// every run of it shares.
func (c Config) Plan() (Plan, error) {
	c = c.WithDefaults()
	stream, err := failure.NewPlan(failure.Config{
		System:    c.System,
		JobNodes:  c.App.Nodes,
		Leads:     c.Leads,
		LeadScale: c.LeadScale,
		FNRate:    c.FNRate,
		FPRate:    c.FPRate,
		Replay:    c.Replay,
	})
	return Plan{stream: stream, faults: c.Faults}, err
}

// Inputs is the storage of one run's stochastic inputs: the event
// source and the fault injector. A recycled run record keeps one and
// Plan.Seed restarts it for each run.
type Inputs struct {
	source failure.SourceState
	inj    faultinject.Injector
}

// Drop clears the metric handles and configuration references the
// inputs hold, keeping their buffers, so a pooled run record keeps no
// finished run's registry alive.
func (in *Inputs) Drop() {
	in.source.Drop()
	in.inj = faultinject.Injector{}
}

// Seed starts one run's sources in the storage in, the ones
// Sources(seed, reg) returns draw for draw: the root source's Split(1) feeds the stream and
// its Split(faultinject.StreamKey) the injector, which is nil for a zero
// fault plan.
func (p *Plan) Seed(in *Inputs, seed uint64, reg *metrics.Registry) (failure.EventSource, *faultinject.Injector) {
	var root, sub rng.Source
	root.Seed(seed)
	root.SplitTo(1, &sub)
	stream := p.stream.Start(&in.source, &sub, reg)
	if p.faults == (faultinject.Config{}) {
		return stream, nil
	}
	root.SplitTo(faultinject.StreamKey, &sub)
	in.inj.Reset(p.faults, &sub, reg)
	return stream, &in.inj
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
	// SigmaLM is Eq. (2)'s σ for LM-capable models (policy.ID.Sigma
	// gates it on the catalogue capability, 0 otherwise).
	SigmaLM float64
	// SingleNodePFSWrite is one node's uncontended PFS write: the price
	// of each vulnerable node's prioritized commit in p-ckpt phase 1.
	// Phase 2, the healthy nodes' contended write, depends on how many
	// committed first and is priced by IO.PFSWriteTransfer per episode.
	SingleNodePFSWrite float64
	// FullPFSWrite is the all-node contended PFS write (M1's safeguard
	// checkpoint).
	FullPFSWrite float64
	// RecoveryBB is the unhandled-failure recovery path: surviving nodes
	// restore from BB while the replacement reads the PFS.
	RecoveryBB float64
	// RecoveryPFS is the mitigated-failure recovery path: all nodes
	// restore from the PFS.
	RecoveryPFS float64
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
	}
}
