package experiments

import (
	"fmt"

	"pckpt/internal/crmodel"
	"pckpt/internal/nodesim"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
	"pckpt/internal/sweep"
)

// Tier is one simulation granularity the experiment runner can drive: the
// application-level model (internal/crmodel), the node-granular
// simulator (internal/nodesim), or the step-based tier-0 engine
// (internal/stepsim). All consume the shared platform configuration and
// the policy catalogue, so a sweep is written once and runs at any
// granularity. Adding a tier is one registry entry in Tiers(); the
// runner, cache, and cross-validation machinery key on Name.
type Tier struct {
	// Name labels the tier in tables and cache keys ("app" / "node" /
	// "step"); it must be unique across the Tiers() registry.
	Name string
	// Supports reports whether the tier implements the catalogue entry
	// (the node tier implements the subset with a NodeLabel; the app and
	// step tiers implement the full catalogue).
	Supports func(id policy.ID) bool
	// Simulate runs one seed of the model on the shared platform config.
	Simulate func(id policy.ID, plat platform.Config, seed uint64) stats.RunResult
	// BitIdentical marks tiers whose RunResults equal the reference
	// tier's bit for bit on shared seeds. Only such tiers may serve as
	// the sweep tier: experiment cache keys are tier-agnostic, so a
	// cached aggregate must be valid no matter which bit-identical tier
	// produced it. The node tier models at finer granularity and only
	// agrees statistically, so it stays false.
	BitIdentical bool
}

// AppTier is the application-granularity tier; it implements the full
// catalogue.
func AppTier() Tier {
	return Tier{
		Name:     "app",
		Supports: func(policy.ID) bool { return true },
		Simulate: func(id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
			return crmodel.Simulate(crmodel.Config{Model: id, Config: plat}, seed)
		},
		BitIdentical: true,
	}
}

// NodeTier is the node-granularity tier; it implements the catalogue
// subset with node labels (B, P1, P2).
func NodeTier() Tier {
	return Tier{
		Name:     "node",
		Supports: func(id policy.ID) bool { return id.NodeLabel() != "" },
		Simulate: func(id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
			return nodesim.Simulate(nodesim.Config{Policy: id, Config: plat}, seed)
		},
	}
}

// StepTier is the tier-0 step-based engine; it implements the full
// five-model catalogue — p-ckpt episodes included — and is bit-identical
// to the app tier on shared failure streams — same RunResult, not just
// agreeing statistics (crossval enforces this). It is the default sweep
// tier; the app tier rides along as a sampled cross-check (see
// SimulateSweepN).
func StepTier() Tier {
	return Tier{
		Name:     "step",
		Supports: stepsim.Supports,
		Simulate: func(id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
			return stepsim.Simulate(stepsim.Config{Model: id, Config: plat}, seed)
		},
		BitIdentical: true,
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

// runTier is SimulateSweepN without the cross-check, behind the result
// cache: the tier name joins the per-configuration label so the two
// granularities of one catalogue entry never collide, and a fresh
// aggregate is flushed back to the cache (tier runs are never metered,
// so no snapshot is stored or required).
func runTier(p Params, t Tier, id policy.ID, plat platform.Config, n int, baseSeed uint64) *stats.Agg {
	if p.Faults.Enabled() && !plat.Faults.Enabled() {
		plat.Faults = p.Faults
	}
	key := p.cacheKey("tier="+t.Name, id, plat, n)
	key.Seed = baseSeed
	if agg, ok := p.cacheGet(key, false); ok {
		return agg
	}
	p.checkInterrupt()
	agg := SimulateSweepN(t, id, plat, n, baseSeed, p.Workers, 0)
	p.cachePut(key, agg, nil)
	return agg
}

// DefaultCrossCheckStride is the sampled cross-check density sweeps use
// unless overridden: one in every 16 seeds is re-run on the reference
// tier and compared bit for bit.
const DefaultCrossCheckStride = 16

// SimulateSweepN runs n seeds of one catalogue entry on a tier, drawing
// the sweep.Seed sequence every tier uses, so per-seed results are
// comparable across tiers; they aggregate in seed order for any worker
// count. A run that panics — a model bug, or the sim watchdog killing a
// livelock — lands in the aggregate's failed-run ledger.
//
// stride > 0 adds a sampled cross-check: every stride-th seed is also
// simulated on the reference (app) tier and compared bit for bit with the
// result the sweep aggregated, so the step tier's bit-identity contract
// is audited instead of trusted. A divergence panics with a full
// diagnostic: a drifted tier invalidates every cached aggregate it
// produced. stride <= 0 disables the cross-check, as does running on the
// reference tier itself.
func SimulateSweepN(t Tier, id policy.ID, plat platform.Config, n int, baseSeed uint64, workers, stride int) *stats.Agg {
	desc := fmt.Sprintf("tier=%s model=%s app=%s", t.Name, id, plat.App.Name)
	results, failed := sweep.Run(n, baseSeed, workers, desc, func(seed uint64) stats.RunResult {
		return t.Simulate(id, plat, seed)
	})
	if ref := AppTier(); stride > 0 && t.Name != ref.Name {
		crossCheckSampled(t, ref, id, plat, baseSeed, workers, stride, results, failed)
	}
	return stats.NewAgg(sweep.Completed(results, baseSeed, failed), failed)
}

// crossCheckSampled simulates seed indices 0, stride, 2·stride, … on ref
// and compares each with the sweep's result on t (got, and its ledger
// gotFailed), panicking on the first bit difference. A run that panicked
// on both tiers is tolerated — the sweep aggregate already ledgers it as
// a failed run — but a panic on only one tier is itself a divergence.
func crossCheckSampled(t, ref Tier, id policy.ID, plat platform.Config, baseSeed uint64, workers, stride int, got []stats.RunResult, gotFailed []stats.FailedRun) {
	sampled := map[uint64]bool{}
	for i := 0; i < len(got); i += stride {
		sampled[sweep.Seed(baseSeed, i)] = true
	}
	want, wantFailed := sweep.Run(len(got), baseSeed, workers, "reference", func(seed uint64) stats.RunResult {
		if !sampled[seed] {
			return stats.RunResult{}
		}
		return ref.Simulate(id, plat, seed)
	})
	for i := 0; i < len(got); i += stride {
		seed := sweep.Seed(baseSeed, i)
		switch gotFail, wantFail := ledgered(gotFailed, seed), ledgered(wantFailed, seed); {
		case gotFail != "" && wantFail != "":
			// Both panicked: the sweep aggregate ledgers the run.
		case gotFail != "" || wantFail != "":
			panic(fmt.Sprintf("experiments: tier %q diverged from %q at run %d (seed %#x) model=%s app=%s: %q panic=%q, %q panic=%q",
				t.Name, ref.Name, i, seed, id, plat.App.Name, t.Name, gotFail, ref.Name, wantFail))
		case got[i] != want[i]:
			panic(fmt.Sprintf("experiments: tier %q diverged from %q at run %d (seed %#x) model=%s app=%s\n%s: %+v\n%s: %+v",
				t.Name, ref.Name, i, seed, id, plat.App.Name, t.Name, got[i], ref.Name, want[i]))
		}
	}
}

// ledgered returns the recorded panic of the run seeded seed, or "" when
// that run completed.
func ledgered(failed []stats.FailedRun, seed uint64) string {
	for _, f := range failed {
		if f.Seed == seed {
			return f.Err
		}
	}
	return ""
}
