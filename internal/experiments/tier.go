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
	// Run runs one seed of the model on the shared platform config,
	// recording the run's simulation-time metrics into reg; a nil reg
	// runs unmetered. A registry is single-run state (see
	// internal/metrics), so concurrent runs need one each.
	Run func(id policy.ID, plat platform.Config, seed uint64, reg *metrics.Registry) stats.RunResult
	// BitIdentical marks tiers whose RunResults equal the reference
	// tier's bit for bit on shared seeds. Only such tiers may serve as
	// the sweep tier: experiment cache keys are tier-agnostic, so a
	// cached aggregate must be valid no matter which bit-identical tier
	// produced it. The node tier models at finer granularity and only
	// agrees statistically, so it stays false.
	BitIdentical bool
}

// Simulate runs one unmetered seed: Run with a nil registry.
func (t Tier) Simulate(id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
	return t.Run(id, plat, seed, nil)
}

// AppTier is the application-granularity tier; it implements the full
// catalogue.
func AppTier() Tier {
	return Tier{
		Name:     "app",
		Supports: func(policy.ID) bool { return true },
		Run: func(id policy.ID, plat platform.Config, seed uint64, reg *metrics.Registry) stats.RunResult {
			return crmodel.Simulate(crmodel.Config{Model: id, Config: plat, Metrics: reg}, seed)
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
		Run: func(id policy.ID, plat platform.Config, seed uint64, reg *metrics.Registry) stats.RunResult {
			return nodesim.Simulate(nodesim.Config{Policy: id, Config: plat, Metrics: reg}, seed)
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
		Run: func(id policy.ID, plat platform.Config, seed uint64, reg *metrics.Registry) stats.RunResult {
			return stepsim.Simulate(stepsim.Config{Model: id, Config: plat, Metrics: reg}, seed)
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
	agg, _ := SimulateSweepN(t, id, plat, n, baseSeed, p.Workers, 0, false)
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
// meter records every run into its own registry and returns the
// snapshots of the completed runs merged in seed order, so the merged
// snapshot is as deterministic as the aggregate. Unmetered sweeps
// allocate no registry and return a nil snapshot.
//
// stride > 0 adds a sampled cross-check: every stride-th seed is also
// simulated on the reference (app) tier and compared bit for bit with the
// result the sweep aggregated — and, when metering, with the run's
// snapshot — so the step tier's bit-identity contract is audited instead
// of trusted. A divergence panics with a full diagnostic: a drifted tier
// invalidates every cached aggregate it produced. stride <= 0 disables
// the cross-check, as does running on the reference tier itself.
func SimulateSweepN(t Tier, id policy.ID, plat platform.Config, n int, baseSeed uint64, workers, stride int, meter bool) (*stats.Agg, *metrics.Snapshot) {
	desc := fmt.Sprintf("tier=%s model=%s app=%s", t.Name, id, plat.App.Name)
	var snaps *runSnapshots
	if meter {
		snaps = newRunSnapshots(n, baseSeed, 1, true)
	}
	results, failed := sweep.Run(n, baseSeed, workers, desc, func(seed uint64) stats.RunResult {
		if snaps == nil {
			return t.Run(id, plat, seed, nil)
		}
		return snaps.run(t, id, plat, seed)
	})
	if ref := AppTier(); stride > 0 && t.Name != ref.Name {
		crossCheckSampled(t, ref, id, plat, baseSeed, workers, stride, results, failed, snaps)
	}
	return stats.NewAgg(sweep.Completed(results, baseSeed, failed), failed), snaps.merged()
}

// runSnapshots selects every stride-th run of a sweep by seed and, when
// metered, keeps each selected run's snapshot by run index.
type runSnapshots struct {
	// index maps a selected run's seed to its run index. It is read-only
	// once the pool starts, so workers share it without locks.
	index map[uint64]int
	// snaps holds run i's snapshot at i; nil for an unmetered pass.
	snaps []*metrics.Snapshot
}

// newRunSnapshots selects runs 0, stride, 2·stride, … of n.
func newRunSnapshots(n int, baseSeed uint64, stride int, meter bool) *runSnapshots {
	s := &runSnapshots{index: map[uint64]int{}}
	for i := 0; i < n; i += stride {
		s.index[sweep.Seed(baseSeed, i)] = i
	}
	if meter {
		s.snaps = make([]*metrics.Snapshot, n)
	}
	return s
}

// run simulates seed on t if s selects it, and returns a zero result
// otherwise. A metered run records into a private registry and freezes
// it into the run's slot, which no other worker touches.
func (s *runSnapshots) run(t Tier, id policy.ID, plat platform.Config, seed uint64) stats.RunResult {
	i, ok := s.index[seed]
	switch {
	case !ok:
		return stats.RunResult{}
	case s.snaps == nil:
		return t.Run(id, plat, seed, nil)
	}
	reg := metrics.New()
	r := t.Run(id, plat, seed, reg)
	s.snaps[i] = reg.Snapshot(r.WallSeconds)
	return r
}

// merged folds the snapshots in run-index order — a run that panicked
// left none — or returns nil when s is nil.
func (s *runSnapshots) merged() *metrics.Snapshot {
	if s == nil {
		return nil
	}
	out := &metrics.Snapshot{}
	for _, snap := range s.snaps {
		out.Merge(snap)
	}
	return out
}

// crossCheckSampled simulates seed indices 0, stride, 2·stride, … on ref
// and compares each with the sweep's result on t (got, and its ledger
// gotFailed), panicking on the first bit difference. When the sweep was
// metered (gotSnaps non-nil) the reference runs are metered too, and
// each run's snapshot must match as well. A run that panicked on both
// tiers is tolerated — the sweep aggregate already ledgers it as a
// failed run — but a panic on only one tier is itself a divergence.
func crossCheckSampled(t, ref Tier, id policy.ID, plat platform.Config, baseSeed uint64, workers, stride int, got []stats.RunResult, gotFailed []stats.FailedRun, gotSnaps *runSnapshots) {
	wantSnaps := newRunSnapshots(len(got), baseSeed, stride, gotSnaps != nil)
	want, wantFailed := sweep.Run(len(got), baseSeed, workers, "reference", func(seed uint64) stats.RunResult {
		return wantSnaps.run(ref, id, plat, seed)
	})
	for i := 0; i < len(got); i += stride {
		seed := sweep.Seed(baseSeed, i)
		var diff string
		switch gotFail, wantFail := ledgered(gotFailed, seed), ledgered(wantFailed, seed); {
		case gotFail != "" && wantFail != "":
			// Both panicked: the sweep aggregate ledgers the run.
		case gotFail != "" || wantFail != "":
			diff = fmt.Sprintf(": %q panic=%q, %q panic=%q", t.Name, gotFail, ref.Name, wantFail)
		case got[i] != want[i]:
			diff = fmt.Sprintf("\n%s: %+v\n%s: %+v", t.Name, got[i], ref.Name, want[i])
		case gotSnaps != nil:
			if d := gotSnaps.snaps[i].Diff(wantSnaps.snaps[i]); d != "" {
				diff = fmt.Sprintf("\n%s vs %s metrics: %s", t.Name, ref.Name, d)
			}
		}
		if diff != "" {
			panic(fmt.Sprintf("experiments: tier %q diverged from %q at run %d (seed %#x) model=%s app=%s%s",
				t.Name, ref.Name, i, seed, id, plat.App.Name, diff))
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
