package experiments

import (
	"fmt"

	"pckpt/internal/crmodel"
	"pckpt/internal/metrics"
	"pckpt/internal/nodesim"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
	"pckpt/internal/sweep"
)

// Tier is one simulation granularity the experiment runner can drive: the
// application-level model (internal/crmodel), the node-granular
// simulator (internal/nodesim), or the step tier's callback port
// (internal/stepsim). All consume the shared platform configuration and
// the policy catalogue, so a sweep is written once and runs at any
// granularity. Adding a tier is one registry entry in Tiers(); the
// resolver, cache, and cross-validation machinery key on Name.
type Tier struct {
	// Name labels the tier in tables and cache keys ("app" / "node" /
	// "step"); it must be unique across the Tiers() registry.
	Name string
	// Supports reports whether the tier implements the catalogue entry
	// (the node tier implements the subset with a NodeLabel; the app and
	// step tiers implement the full catalogue).
	Supports func(id policy.ID) bool
	// Run runs one seed of the model on the shared platform config,
	// recording the run's simulation-time metrics into reg; a nil reg
	// runs unmetered. A registry is single-run state (see
	// internal/metrics), so concurrent runs need one each.
	Run func(id policy.ID, plat platform.Config, seed uint64, reg *metrics.Registry) stats.RunResult
}

// Simulate runs one unmetered seed: Run with a nil registry. Nothing in
// this module uses it; it stays because the benchmark's replay of the
// sweep paths (bench/replay.go, a separate module) calls it.
func (t Tier) Simulate(id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
	return t.Run(id, plat, seed, nil)
}

// AppTier is the application-granularity tier and the reference the
// other tiers are checked against; it implements the full catalogue.
func AppTier() Tier {
	return Tier{
		Name:     "app",
		Supports: func(policy.ID) bool { return true },
		Run: func(id policy.ID, plat platform.Config, seed uint64, reg *metrics.Registry) stats.RunResult {
			return crmodel.Simulate(crmodel.Config{Model: id, Config: plat, Metrics: reg}, seed)
		},
	}
}

// NodeTier is the node-granularity tier; it implements the catalogue
// subset with node labels (B, P1, P2).
func NodeTier() Tier {
	return Tier{
		Name:     "node",
		Supports: func(id policy.ID) bool { return id.NodeLabel() != "" },
		Run: func(id policy.ID, plat platform.Config, seed uint64, reg *metrics.Registry) stats.RunResult {
			return nodesim.Simulate(nodesim.Config{Policy: id, Config: plat, Metrics: reg}, seed)
		},
	}
}

// StepTier is the tier-0 callback port on sim.Engine; it implements the full
// five-model catalogue — p-ckpt episodes included — and is bit-identical
// to the app tier on shared failure streams — same RunResult, not just
// agreeing statistics. It is the only tier experiment and spec sweeps
// run on; crossval and the tests hold it to the app-tier reference.
func StepTier() Tier {
	return Tier{
		Name:     "step",
		Supports: stepsim.Supports,
		Run: func(id policy.ID, plat platform.Config, seed uint64, reg *metrics.Registry) stats.RunResult {
			return stepsim.Simulate(stepsim.Config{Model: id, Config: plat, Metrics: reg}, seed)
		},
	}
}

// Tiers is the tier registry, reference tier first. Every consumer that
// enumerates granularities (cross-validation, CLI tier flags, parity
// tests) ranges over this list, so registering a tier here is the only
// required change.
func Tiers() []Tier { return []Tier{AppTier(), NodeTier(), StepTier()} }

// TierByName resolves a registry entry for CLI flags; ok is false for an
// unknown name.
func TierByName(name string) (Tier, bool) {
	for _, t := range Tiers() {
		if t.Name == name {
			return t, true
		}
	}
	return Tier{}, false
}

// TierNames lists the registry names in order, for flag help text.
func TierNames() []string {
	ts := Tiers()
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	return names
}

// runTier resolves n unmetered runs on a tier from the base seed itself,
// so every tier sees the same seeds; the tier name labels the cell, so
// tiers never share a cache entry.
func runTier(p Params, t Tier, id policy.ID, plat platform.Config, n int) *stats.Agg {
	p.Metrics = nil
	return mustResolve(p, Cell{Tier: t, Label: "tier=" + t.Name, Policy: id, Platform: plat, Runs: n, Seed: p.Seed})
}

// DefaultCrossCheckStride was the density of the retired sampled
// cross-check, which re-ran one sweep seed in 16 on the app tier. Nothing
// in this module uses it; it stays because the benchmark's replay of the
// sweep paths (bench/replay.go, a separate module) references it.
const DefaultCrossCheckStride = 16

// SimulateSweepN runs n seeds of one catalogue entry on a tier, drawing
// the sweep.Seed sequence every tier uses, so per-seed results are
// comparable across tiers; they aggregate in seed order for any worker
// count. A run that panics — a model bug, or the sim watchdog killing a
// livelock — lands in the aggregate's failed-run ledger.
//
// meter records every run into a registry of its own and returns the
// completed runs' frames folded in seed order, so the merged snapshot is
// as deterministic as the aggregate. The sweep keeps at most one
// registry per worker: a run takes a reset one, or a new one, and resets
// it for the next run once its frame is taken. A run that panics drops
// its registry with whatever it recorded. Unmetered sweeps allocate no
// registry and return a nil snapshot.
func SimulateSweepN(t Tier, id policy.ID, plat platform.Config, n int, baseSeed uint64, workers int, meter bool) (*stats.Agg, *metrics.Snapshot) {
	desc := fmt.Sprintf("tier=%s model=%s app=%s", t.Name, id, plat.App.Name)
	if !meter {
		results, failed := sweep.Run(n, baseSeed, workers, desc, func(seed uint64) stats.RunResult {
			return t.Run(id, plat, seed, nil)
		})
		return stats.NewAgg(sweep.Completed(results, baseSeed, failed), failed), nil
	}
	idle := make(chan *metrics.Registry, max(workers, 1))
	runs, failed := sweep.Run(n, baseSeed, workers, desc, func(seed uint64) meteredRun {
		var reg *metrics.Registry
		select {
		case reg = <-idle:
		default:
			reg = metrics.New()
		}
		r := t.Run(id, plat, seed, reg)
		m := meteredRun{r, reg.Frame(r.WallSeconds)}
		reg.Reset()
		idle <- reg // never blocks: each worker holds at most one registry
		return m
	})
	results := make([]stats.RunResult, len(runs))
	var fold metrics.Fold
	for i, m := range runs {
		results[i] = m.RunResult
		fold.Add(m.frame) // a run that panicked left the zero frame
	}
	return stats.NewAgg(sweep.Completed(results, baseSeed, failed), failed), fold.Snapshot()
}

// meteredRun is one metered run's result and its registry's frame.
type meteredRun struct {
	stats.RunResult
	frame metrics.Frame
}
