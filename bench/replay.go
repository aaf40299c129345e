package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"pckpt/internal/cluster"
	"pckpt/internal/crmodel"
	"pckpt/internal/experiments"
	"pckpt/internal/machine"
	"pckpt/internal/metrics"
	"pckpt/internal/runcache"
	"pckpt/internal/scenario"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
	"pckpt/internal/workload"
)

// replayer re-drives a workload through the same public calls the timed
// run makes, one layer call per span, so per-layer time, counts and
// allocations can be read off the trace. Every call is recovered; a
// disagreement between the replay and the code it mirrors is recorded as
// a failed check.
type replayer struct {
	tr      *tracer
	seed    uint64
	workers int

	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs, checks      []string
}

// do runs one public call, turning a panic or error into a failed call.
func (r *replayer) do(what string, fn func() error) (ok bool) {
	r.attempted.Add(1)
	defer func() {
		if p := recover(); p != nil {
			r.fail("%s: panic: %v", what, p)
			ok = false
		}
	}()
	if err := fn(); err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	return true
}

// fail records a failed call.
func (r *replayer) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// check records a correctness violation.
func (r *replayer) check(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// run simulates one seed the way SimulateTierN does: a panic becomes the
// run's failure text instead of aborting the sweep.
func (r *replayer) run(sim func() stats.RunResult) (res stats.RunResult, failure string) {
	r.attempted.Add(1)
	defer func() {
		if p := recover(); p != nil {
			failure = fmt.Sprint(p)
			r.failed.Add(1)
		}
	}()
	return sim(), ""
}

// simulate runs one seed of c on tier t.
func (r *replayer) simulate(t experiments.Tier, c cell, seed uint64) (stats.RunResult, string) {
	return r.run(func() stats.RunResult { return t.Simulate(c.model, c.plat, seed) })
}

// pool runs fn(i) for every i in [0, n) on up to workers goroutines and
// returns once all have finished.
func pool(n, workers int, fn func(i int)) {
	workers = max(1, min(workers, n))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

func ckpts(r stats.RunResult) int64 { return int64(r.Checkpoints + r.ProactiveCkpts) }

// sweep replays experiments.SimulateSweepN over cells: every seed on the
// step tier in a pool of r.workers, then every DefaultCrossCheckStride-th
// seed serially on the app tier, compared bit for bit. Each aggregate is
// Put under the key the experiment resolves. A tier missing from the
// registry is skipped; with neither, nothing can be replayed.
func (r *replayer) sweep(parent int, exp string, cells []cell, runs int, store *runcache.Store) {
	step, okStep := experiments.TierByName("step")
	app, okApp := experiments.TierByName("app")
	tier, layer := step, "stepsim"
	if !okStep {
		tier, layer = app, "crmodel"
	}
	if !okStep && !okApp {
		r.check("tier registry has neither the step nor the app tier")
		return
	}
	sw := r.tr.open(parent, "experiments.sweep", "")
	for _, c := range cells {
		name := c.plat.App.Name
		cid := r.tr.open(sw, "experiments.config", name)
		base := configSeed(r.seed, c.label)
		results := make([]stats.RunResult, runs)
		fails := make([]string, runs)
		r.tr.phase(cid, layer+".pool", name, func(pid int) int64 {
			pool(runs, r.workers, func(i int) {
				r.tr.timed(pid, layer+".run", name, func() int64 {
					results[i], fails[i] = r.simulate(tier, c, crmodel.RunSeed(base, i))
					return ckpts(results[i])
				})
			})
			return int64(runs)
		})
		if okStep && okApp {
			r.tr.phase(cid, "crmodel.crosscheck", name, func(xid int) int64 {
				var n int64
				for i := 0; i < runs; i += experiments.DefaultCrossCheckStride {
					var want stats.RunResult
					var wantFail string
					r.tr.timed(xid, "crmodel.run", name, func() int64 {
						want, wantFail = r.simulate(app, c, crmodel.RunSeed(base, i))
						return ckpts(want)
					})
					if (wantFail != "") != (fails[i] != "") || want != results[i] {
						r.check("%s run %d: step and app tiers diverge", c.label, i)
					}
					n++
				}
				return n
			})
		}
		r.put(cid, store, c.key(exp, runs, r.seed), aggregate(results, fails, base,
			fmt.Sprintf("tier=%s model=%s app=%s", tier.Name, c.model, name)), nil)
		r.tr.finish(cid, 0, int64(runs))
	}
	r.tr.finish(sw, 0, int64(len(cells)*runs))
}

// aggregate folds per-seed results into an Agg in seed order, ledgering
// failed runs the way the sweep runners do.
func aggregate(results []stats.RunResult, fails []string, base uint64, desc string) *stats.Agg {
	agg := &stats.Agg{}
	for i, res := range results {
		if fails[i] != "" {
			agg.AddFailed(stats.FailedRun{Seed: crmodel.RunSeed(base, i), Config: desc, Err: fails[i]})
			continue
		}
		agg.Add(res)
	}
	return agg
}

// open is a timed runcache.Open; nil when it failed.
func (r *replayer) open(parent int, dir string) (store *runcache.Store) {
	r.tr.timed(parent, "runcache.open", "", func() int64 {
		r.do("runcache.Open", func() (err error) { store, err = runcache.Open(dir); return err })
		return 0
	})
	return store
}

// put is a timed runcache.Store.Put.
func (r *replayer) put(parent int, store *runcache.Store, k runcache.Key, agg *stats.Agg, snap *metrics.Snapshot) {
	r.tr.timed(parent, "runcache.put", "", func() int64 {
		r.do("runcache.Put", func() error { return store.Put(k, agg, snap) })
		return 0
	})
}

// metered replays the metered sweep path (crmodel.SimulateNMetered plus
// the collector): every seed on the app tier with a private registry, the
// per-run snapshots merged in seed order and added to col, each aggregate
// Put with its snapshot. It returns each cell's per-seed results.
func (r *replayer) metered(parent int, exp string, cells []cell, runs int, store *runcache.Store, col *metrics.Collector) [][]stats.RunResult {
	out := make([][]stats.RunResult, len(cells))
	sw := r.tr.open(parent, "experiments.sweep", "")
	for ci, c := range cells {
		name := c.plat.App.Name
		cid := r.tr.open(sw, "experiments.config", name)
		base := configSeed(r.seed, c.label)
		results := make([]stats.RunResult, runs)
		fails := make([]string, runs)
		snaps := make([]*metrics.Snapshot, runs)
		r.tr.phase(cid, "crmodel.metered_pool", name, func(pid int) int64 {
			pool(runs, r.workers, func(i int) {
				r.tr.timed(pid, "crmodel.metered_run", name, func() int64 {
					results[i], fails[i] = r.run(func() stats.RunResult {
						cfg := crmodel.Config{Model: c.model, Config: c.plat, Metrics: metrics.New()}
						res := crmodel.Simulate(cfg, crmodel.RunSeed(base, i))
						snaps[i] = cfg.Metrics.Snapshot(res.WallSeconds)
						return res
					})
					return ckpts(results[i])
				})
			})
			return int64(runs)
		})
		merged := &metrics.Snapshot{}
		r.tr.timed(cid, "metrics.collector_add", name, func() int64 {
			for _, s := range snaps {
				merged.Merge(s)
			}
			col.Add(merged)
			return int64(runs)
		})
		r.put(cid, store, c.key(exp, runs, r.seed), aggregate(results, fails, base,
			fmt.Sprintf("model=%s app=%s system=%s", c.model, name, c.plat.System.Name)), merged)
		out[ci] = results
		r.tr.finish(cid, 0, int64(runs))
	}
	r.tr.finish(sw, 0, int64(len(cells)*runs))
	return out
}

// stepCompare re-runs the metered seeds on the step tier and checks them
// bit for bit against the metered app-tier results.
func (r *replayer) stepCompare(parent int, cells []cell, runs int, want [][]stats.RunResult) {
	step, ok := experiments.TierByName("step")
	if !ok {
		return
	}
	for ci, c := range cells {
		name := c.plat.App.Name
		base := configSeed(r.seed, c.label)
		r.tr.phase(parent, "stepsim.pool", name, func(pid int) int64 {
			pool(runs, r.workers, func(i int) {
				r.tr.timed(pid, "stepsim.run", name, func() int64 {
					got, fail := r.simulate(step, c, crmodel.RunSeed(base, i))
					if fail != "" || got != want[ci][i] {
						r.check("%s run %d: metered app tier and step tier diverge", c.label, i)
					}
					return ckpts(got)
				})
			})
			return int64(runs)
		})
	}
}

// resolve runs the experiment against store, which the replay filled:
// every configuration must be a cache hit, or the replay did not mirror
// the experiment's grid.
func (r *replayer) resolve(parent int, def experiments.Def, runs int, store *runcache.Store, col *metrics.Collector, cells int) (res experiments.Result) {
	before := store.Totals()
	r.tr.timed(parent, "experiments.resolve", "", func() int64 {
		r.do("experiments.Run", func() (err error) {
			res, err = experiments.Run(def, experiments.Params{Runs: runs, Seed: r.seed, SeedSet: true, Cache: store, Metrics: col})
			return err
		})
		return int64(cells * runs)
	})
	after := store.Totals()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != cells || misses != 0 {
		r.check("%s resolve: %d hits, %d misses against %d replayed configurations", def.ID, hits, misses, cells)
	}
	return res
}

// reads opens the store at dir and Gets every cell's key loops times; a
// get span counts 1 on a hit. Every blob on disk is then recorded as a
// zero-length runcache.entry span counting its bytes.
func (r *replayer) reads(parent int, dir, exp string, cells []cell, runs, loops int) {
	store := r.open(parent, dir)
	if store == nil {
		return
	}
	for l := 0; l < loops; l++ {
		for _, c := range cells {
			k := c.key(exp, runs, r.seed)
			r.tr.timed(parent, "runcache.get", c.plat.App.Name, func() int64 {
				if _, _, hit := store.Get(k, false); hit {
					return 1
				}
				return 0
			})
		}
	}
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return nil
		}
		if info, err := d.Info(); err == nil {
			now := r.tr.now()
			r.tr.leaf(parent, "runcache.entry", "", now, now, info.Size())
		}
		return nil
	})
}

// loadSpec is a timed scenario.Load plus (*Spec).MachineConfig.
func (r *replayer) loadSpec(parent int, path string) (cfg machine.Config, ok bool) {
	var spec *scenario.Spec
	r.tr.timed(parent, "scenario.load", "", func() int64 {
		ok = r.do("scenario.Load", func() (err error) { spec, err = scenario.Load(path); return err })
		return 0
	})
	if !ok {
		return cfg, false
	}
	r.tr.timed(parent, "scenario.compile", "", func() int64 {
		ok = r.do("scenario.MachineConfig", func() (err error) { cfg, err = spec.MachineConfig(); return err })
		return int64(len(cfg.Jobs))
	})
	return cfg, ok
}

// machines replays machine.SimulateN as per-seed machine.Simulate calls
// in a pool, counting each run's bandwidth repricings through OnAlloc.
func (r *replayer) machines(parent int, cfg machine.Config, runs int) []machine.Result {
	out := make([]machine.Result, runs)
	r.tr.phase(parent, "machine.sweep", "", func(pid int) int64 {
		pool(runs, r.workers, func(i int) {
			r.tr.timed(pid, "machine.run", "", func() int64 {
				var repricings int64
				c := cfg
				c.OnAlloc = func(_, _, _ float64) { repricings++ }
				r.do("machine.Simulate", func() error {
					out[i] = machine.Simulate(c, crmodel.RunSeed(r.seed, i))
					return nil
				})
				return repricings
			})
		})
		return int64(runs)
	})
	return out
}

// solo re-simulates every tenant of every machine run alone on the step
// tier (the baselines machine.Simulate computes internally) and checks
// each against the run's recorded SoloWallSeconds.
func (r *replayer) solo(parent int, cfg machine.Config, got []machine.Result) {
	jobs := cfg.WithDefaults().Jobs
	sid := r.tr.open(parent, "machine.solo", "")
	r.tr.phase(sid, "stepsim.pool", "", func(pid int) int64 {
		pool(len(got), r.workers, func(run int) {
			runSeed := crmodel.RunSeed(r.seed, run)
			for i, j := range jobs {
				cfg := stepsim.Config{Model: j.Model, Config: j.Platform}
				seed := crmodel.RunSeed(runSeed, i)
				r.tr.timed(pid, "stepsim.run", j.Platform.App.Name, func() int64 {
					res, fail := r.run(func() stats.RunResult { return stepsim.Simulate(cfg, seed) })
					if fail != "" || i >= len(got[run].Jobs) || res.WallSeconds != got[run].Jobs[i].SoloWallSeconds {
						r.check("machine run %d job %d: solo re-simulation disagrees with the machine's baseline", run, i)
					}
					return ckpts(res)
				})
			}
		})
		return int64(len(got) * len(jobs))
	})
	r.tr.finish(sid, 0, int64(len(got)))
}

// clusterProbe times cluster.RecordBBCheckpointAll plus
// RecordPFSCheckpointAll on each application's node count, five spans of
// loops passes each; a span counts its node records (two per node per
// loop).
func (r *replayer) clusterProbe(parent int, apps []string, loops int) {
	for _, name := range apps {
		app, err := workload.ByName(name)
		if err != nil {
			r.check("cluster probe: %v", err)
			continue
		}
		c := cluster.New(app.Nodes, 0)
		for i := 0; i < 5; i++ {
			r.tr.timed(parent, "cluster.record", name, func() int64 {
				for k := 0; k < loops; k++ {
					c.RecordBBCheckpointAll(float64(k))
					c.RecordPFSCheckpointAll(float64(k))
				}
				return int64(2 * loops * app.Nodes)
			})
		}
	}
}
