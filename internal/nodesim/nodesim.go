// Package nodesim runs the p-ckpt C/R system at node granularity: every
// compute node is its own simulated process, coordinated bulk-synchronously
// (the paper mandates coordinated checkpoints), with the p-ckpt protocol's
// prioritized PFS lane realised as an actual priority resource that
// vulnerable-node processes acquire in lead-time order.
//
// The paper's own evaluation is application-level (its Sec. VII notes a
// complete implementation of the whole system is out of scope); this
// package is that missing tier for simulation purposes, and a
// cross-validation test checks that its aggregate accounting agrees with
// the application-level model in internal/crmodel on matched
// configurations — the two tiers consume identical failure streams and
// must tell the same story. Both tiers share the model catalogue and
// strategies of internal/policy and the derived quantities and seeded
// sources of internal/platform, so agreement on the platform math holds
// by construction.
//
// Structure: a coordinator process drives phases (compute → BB write →
// async drain; p-ckpt episodes and recoveries on demand) by issuing
// commands to node processes and awaiting their reports; the failure
// injector interrupts only the coordinator. Node processes execute timed
// work and can be aborted mid-phase when a failure voids it.
//
// The package splits along those lines: this file holds the public
// configuration surface and Simulate; engine.go the command/report
// machinery between coordinator and nodes; phases.go the BSP phases and
// proactive handshakes; fault.go the failure path.
package nodesim

import (
	"fmt"

	"pckpt/internal/failure"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/sim"
	"pckpt/internal/stats"
)

// Policy selects the proactive strategy. It is the policy catalogue's ID
// type; the node-granular tier implements the subset below (it exists
// for the paper's contribution, not for re-running every baseline), and
// Validate rejects catalogue entries outside it.
type Policy = policy.ID

const (
	// PolicyBase: periodic checkpointing only (model B).
	PolicyBase Policy = policy.B
	// PolicyPckpt: coordinated prioritized checkpointing (model P1).
	PolicyPckpt Policy = policy.P1
	// PolicyHybrid: LM preferred, p-ckpt fallback (model P2).
	PolicyHybrid Policy = policy.P2
)

// Config parameterises a node-granular run: the policy under test, the
// shared platform configuration, and this tier's observers. Embedding
// platform.Config is what keeps the two tiers comparable: their defaults
// and derived quantities come from the same code by construction.
type Config struct {
	// Policy is the proactive strategy to simulate.
	Policy Policy
	// Config is the tier-independent platform: application, failure
	// system, I/O pricing, migration model, predictor. Its fields are
	// promoted (cfg.App, cfg.System, ...).
	platform.Config
	// Metrics, when non-nil, receives the run's simulation-time metrics
	// (see internal/metrics): episode spans, per-node commit latency,
	// coordination (lane) wait, drain queue depth. Nil costs nothing on
	// the hot path. A Registry is single-run state — do not share one
	// across concurrent Simulate calls.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	c.Config = c.Config.WithDefaults()
	return c
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	if c.Policy.NodeLabel() == "" {
		return fmt.Errorf("nodesim: invalid policy %d", uint8(c.Policy))
	}
	return c.Config.Validate()
}

// nodeMetrics is the node-granular tier's instrument handle set; all nil
// (free no-ops) when metering is off. Names are prefixed
// "nodesim.<policy>." to keep the tier's distributions apart from the
// application-level model's "sim.<model>." series.
type nodeMetrics struct {
	bbWrite    *metrics.Histogram // blocked span per completed BB phase
	episodeDur *metrics.Histogram // blocked span per completed episode
	commitLat  *metrics.Histogram // vulnWrite post → PFS commit, per node
	laneWait   *metrics.Histogram // coordination wait for the priority lane
	recoveryDur,
	recomputeLoss *metrics.Histogram
	pfsGBs            *metrics.Histogram // effective aggregate GB/s per phase-2 write
	drainDepth        *metrics.Gauge
	episodesAbandoned *metrics.Counter
}

func newNodeMetrics(r *metrics.Registry, pol Policy) nodeMetrics {
	if r == nil {
		return nodeMetrics{}
	}
	p := "nodesim." + pol.NodeLabel() + "."
	return nodeMetrics{
		bbWrite:           r.Histogram(p + "bb_write_seconds"),
		episodeDur:        r.Histogram(p + "episode_seconds"),
		commitLat:         r.Histogram(p + "episode_commit_latency_seconds"),
		laneWait:          r.Histogram(p + "lane_wait_seconds"),
		recoveryDur:       r.Histogram(p + "recovery_seconds"),
		recomputeLoss:     r.Histogram(p + "recompute_loss_seconds"),
		pfsGBs:            r.Histogram(p + "pfs_effective_gbps"),
		drainDepth:        r.Gauge(p + "drain_queue_depth"),
		episodesAbandoned: r.Counter(p + "episodes_abandoned"),
	}
}

// Simulate executes one node-granular run. Deterministic in (cfg, seed);
// with the same seed it consumes the identical failure stream as
// crmodel.Simulate on the matching configuration.
func Simulate(cfg Config, seed uint64) stats.RunResult {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	env := sim.NewEnv()
	plat := cfg.Derive()
	c := &cluster{
		cfg:   cfg,
		pol:   policy.For(cfg.Policy),
		env:   env,
		est:   failure.NewRateEstimator(cfg.System.JobFailureRate(cfg.App.Nodes)),
		plat:  plat,
		sigma: cfg.Policy.Sigma(plat),
		st:    policy.NewState(),
		lane:  sim.NewResource(env, 1),
	}
	c.allDone = sim.NewEvent(env)

	c.met = newNodeMetrics(cfg.Metrics, cfg.Policy)
	var stream failure.EventSource
	stream, c.inj = cfg.Sources(seed, cfg.Metrics)
	// Fail fast with a diagnostic if a run ever stops making progress.
	env.SetWatchdog(sim.RunEventBudget, 0)

	for i := 0; i < cfg.App.Nodes; i++ {
		n := &node{id: i, ready: sim.NewEvent(env)}
		c.nodes = append(c.nodes, n)
		n.proc = env.Spawn(fmt.Sprintf("node-%d", i), func(p *sim.Proc) { c.nodeLoop(p, n) })
	}
	c.coord = env.Spawn("coordinator", c.coordinate)
	env.Spawn("injector", func(p *sim.Proc) { c.inject(p, stream) })
	env.RunAll()
	env.Release()
	return c.res
}
