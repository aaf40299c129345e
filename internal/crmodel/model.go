// Package crmodel implements the five Checkpoint/Restart models the paper
// evaluates, at application granularity (one simulated process per
// application, the granularity of the paper's SimPy study):
//
//	B  — periodic BB checkpointing with asynchronous PFS drain, no
//	     failure prediction (the base model all reductions are
//	     measured against);
//	M1 — B + failure prediction + safeguard checkpointing (Bouguerra et
//	     al.): on prediction, all nodes synchronously checkpoint to the
//	     PFS, hoping to finish before the failure;
//	M2 — B + failure prediction + live migration (Behera et al.): with
//	     lead ≥ θ the vulnerable process migrates to a spare and the
//	     failure is avoided entirely;
//	P1 — B + failure prediction + p-ckpt: the coordinated prioritized
//	     checkpoint protocol (this paper's contribution);
//	P2 — hybrid p-ckpt: LM preferred, p-ckpt fallback with LM abort
//	     (this paper's headline model).
//
// The model catalogue and per-model strategies live in internal/policy,
// the platform quantities in internal/platform, and the model's
// transitions (cycles, checkpoints, drains, predictions, episodes,
// safeguards, failures) in internal/appmodel. This package is the
// reference scheduler that executes them: a run is an application
// process doing the compute/checkpoint cycle on the process layer of
// internal/sim, and an injector process delivering the failure and
// prediction stream, as in the paper's SimPy study. internal/stepsim
// executes the same model as engine continuations and is held
// bit-identical to this package. Every run is deterministic given its
// seed.
package crmodel

import (
	"fmt"

	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/trace"
)

// Config parameterises one simulation: the model under test, the shared
// platform configuration, and this tier's observers.
type Config struct {
	// Model is the C/R policy to simulate.
	Model policy.ID
	// Config is the tier-independent platform: application, failure
	// system, I/O pricing, migration model, predictor. Its fields are
	// promoted (cfg.App, cfg.System, ...).
	platform.Config
	// Trace, when non-nil, receives the run's timeline events (see
	// internal/trace). Leave nil for production sweeps: tracing a long
	// run records one event per checkpoint cycle.
	Trace trace.Recorder
	// Metrics, when non-nil, receives the run's simulation-time metrics
	// (see internal/metrics): checkpoint block times, episode latencies,
	// drain queue depth, effective PFS bandwidth, lead-time consumption.
	// Like Trace, nil costs nothing on the hot path. A Registry is
	// single-run state — never share one across concurrent Simulate
	// calls; experiments.SimulateSweepN gives every run its own and
	// merges the snapshots.
	Metrics *metrics.Registry
}

// withDefaults returns a copy with zero platform fields defaulted.
func (c Config) withDefaults() Config {
	c.Config = c.Config.WithDefaults()
	return c
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	if !c.Model.Valid() {
		return fmt.Errorf("crmodel: invalid model %d", uint8(c.Model))
	}
	return c.Config.Validate()
}
