package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"pckpt/internal/experiments"
	"pckpt/internal/machine"
	"pckpt/internal/metrics"
	"pckpt/internal/policy"
	"pckpt/internal/runcache"
	"pckpt/internal/scenario"
)

// specPath is the scenario spec the machine-spec workload runs, relative
// to the repository root (the working directory of every child).
const specPath = "examples/scenarios/machine-degraded.json"

// sizes is how much work one repetition of each workload does.
type sizes struct {
	fig4Runs    int // experiments Runs for fig4 (cold and warm)
	fig7Runs    int // experiments Runs for fig7
	machineRuns int // cohort simulations per machine-spec repetition
	warmLoops   int // (Open + Run) resolves per fig4-warm repetition
	warmTraced  int // resolves in a traced fig4-warm replay
	probeRuns   int // runs per configuration in the probe battery
}

var defaultSizes = sizes{fig4Runs: 200, fig7Runs: 100, machineRuns: 4000, warmLoops: 40, warmTraced: 5, probeRuns: 32}

// sizesFor shrinks every size to n when n > 0 (smoke runs).
func sizesFor(n int) sizes {
	if n <= 0 {
		return defaultSizes
	}
	d := defaultSizes
	return sizes{fig4Runs: n, fig7Runs: n, machineRuns: n, warmLoops: n,
		warmTraced: min(n, d.warmTraced), probeRuns: min(n, d.probeRuns)}
}

// report is what a child prints as its last line.
type report struct {
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	// Runs is the simulated (fig4-warm: cache-resolved) runs the timed
	// calls covered; for a traced child, the runs its replay mirrors.
	Runs      int      `json:"runs"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Checks lists correctness violations the child found itself.
	Checks []string `json:"checks,omitempty"`
	// Digest hashes the workload's full output; MetricsDigest the merged
	// metrics snapshot of a metered sweep.
	Digest        string             `json:"digest"`
	MetricsDigest string             `json:"metrics_digest,omitempty"`
	Layers        map[string]float64 `json:"layers,omitempty"`
}

// state is what a child prepares before it reports ready.
type state struct {
	workload string
	seed     uint64
	size     sizes
	dir      string // cache directory (fig4-cold: fresh; fig4-warm: filled)
	def      experiments.Def
	store    *runcache.Store
	mcfg     machine.Config
}

// childMain is the entry point of one measured repetition: set up, print
// "ready", run the timed calls (or the traced replay) and print a report.
func childMain(args []string) int {
	fs := flag.NewFlagSet("bench child", flag.ContinueOnError)
	w := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 42, "base seed")
	runs := fs.Int("runs", 0, "override every size (0 = defaults)")
	dir := fs.String("dir", "", "result-cache directory")
	setupOnly := fs.Bool("setup-only", false, "exit after set-up")
	traced := fs.Bool("trace", false, "run the traced replay")
	spans := fs.String("spans", "", "file the traced replay writes its spans to")
	stores := fs.String("stores", "", "directory for the traced replay's own result caches")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, err := setup(*w, *seed, sizesFor(*runs), *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("ready")
	if *setupOnly {
		return 0
	}
	var rep report
	if *traced {
		rep = traceRun(st, *spans, *stores)
	} else {
		rep = timedRun(st)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// setup does the per-process work a user also pays before the first
// result: registry lookup, opening the result cache, loading, validating
// and compiling the scenario spec.
func setup(w string, seed uint64, sz sizes, dir string) (*state, error) {
	st := &state{workload: w, seed: seed, size: sz, dir: dir}
	var err error
	switch w {
	case "fig4-cold", "fig4-warm":
		if st.def, err = experiments.ByID("fig4"); err != nil {
			return nil, err
		}
		st.store, err = runcache.Open(dir)
	case "fig7-metered":
		st.def, err = experiments.ByID("fig7")
	case "machine-spec":
		var spec *scenario.Spec
		if spec, err = scenario.Load(specPath); err != nil {
			return nil, err
		}
		st.mcfg, err = spec.MachineConfig()
	default:
		err = fmt.Errorf("unknown workload %q", w)
	}
	return st, err
}

// params are the experiment parameters every timed call uses.
func (st *state) params(runs int) experiments.Params {
	return experiments.Params{Runs: runs, Seed: st.seed, SeedSet: true}
}

// timedRun makes the workload's timed calls with tracing off and reports
// host-side cost. Outputs are digested after the clock stops.
func timedRun(st *state) report {
	var (
		rep     report
		outs    []any
		hits    int
		lookups int
		r       replayer // counts and recovers the calls; traces nothing
	)
	call := func(what string, fn func() (any, error)) {
		r.do(what, func() error {
			out, err := fn()
			if err == nil {
				outs = append(outs, out)
			}
			return err
		})
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	switch st.workload {
	case "fig4-cold":
		call("experiments.Run", func() (any, error) {
			p := st.params(st.size.fig4Runs)
			p.Cache = st.store
			return experiments.Run(st.def, p)
		})
	case "fig4-warm":
		for i := 0; i < st.size.warmLoops; i++ {
			call("runcache.Open+experiments.Run", func() (any, error) {
				store, err := runcache.Open(st.dir)
				if err != nil {
					return nil, err
				}
				p := st.params(st.size.fig4Runs)
				p.Cache = store
				res, err := experiments.Run(st.def, p)
				t := store.Totals()
				hits += t.Hits
				lookups += t.Hits + t.Misses
				return res, err
			})
		}
	case "fig7-metered":
		call("experiments.Run", func() (any, error) {
			p := st.params(st.size.fig7Runs)
			p.Metrics = metrics.NewCollector()
			res, err := experiments.Run(st.def, p)
			return metered{res, p.Metrics}, err
		})
	case "machine-spec":
		call("machine.SimulateN", func() (any, error) {
			return machine.SimulateN(st.mcfg, st.size.machineRuns, st.seed, runtime.GOMAXPROCS(0)), nil
		})
	}
	rep.WallS = time.Since(t0).Seconds()
	rep.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	rep.Mallocs = m1.Mallocs - m0.Mallocs
	rep.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	rep.Attempted, rep.Failed, rep.Errors = int(r.attempted.Load()), int(r.failed.Load()), r.errs

	switch st.workload {
	case "fig4-cold":
		rep.Runs = len(gridFor("fig4")) * st.size.fig4Runs
	case "fig4-warm":
		rep.Runs = hits * st.size.fig4Runs
	case "fig7-metered":
		rep.Runs = len(gridFor("fig7")) * st.size.fig7Runs
	case "machine-spec":
		rep.Runs = st.size.machineRuns
	}

	if lookups != hits {
		rep.Checks = append(rep.Checks, fmt.Sprintf("warm resolves hit the cache %d of %d times", hits, lookups))
	}
	for _, out := range outs {
		d, md := digest(out)
		if rep.Digest == "" {
			rep.Digest, rep.MetricsDigest = d, md
		} else if d != rep.Digest || md != rep.MetricsDigest {
			rep.Checks = append(rep.Checks, "repeated calls on one input gave different outputs")
		}
	}
	return rep
}

// metered is a metered experiment's output: the result and its collector.
type metered struct {
	res experiments.Result
	col *metrics.Collector
}

// digest hashes one timed call's output.
func digest(out any) (d, metricsDigest string) {
	switch o := out.(type) {
	case experiments.Result:
		return resultDigest(o), ""
	case metered:
		return resultDigest(o.res), snapshotDigest(o.col.Snapshot())
	case []machine.Result:
		return machineDigest(o), ""
	}
	panic(fmt.Sprintf("bench: no digest for %T", out))
}

// snapshotDigest hashes a metrics snapshot's JSON form (map keys sorted).
func snapshotDigest(s *metrics.Snapshot) string {
	data, err := json.Marshal(s)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// traceRun replays the workload with spans, then runs the probe battery,
// and reports the per-layer metrics the spans give.
func traceRun(st *state, spansPath, stores string) report {
	tr := newTracer(fmt.Sprintf("%s/seed=%d/pid=%d", st.workload, st.seed, os.Getpid()))
	r := &replayer{tr: tr, seed: st.seed, workers: runtime.GOMAXPROCS(0)}
	var rep report

	root := tr.root("bench.replay", groupReplay)
	var extra func(parent int)
	switch st.workload {
	case "fig4-cold":
		cells := gridFor("fig4")
		if store := r.open(root, filepath.Join(stores, "fig4-cold")); store != nil {
			r.sweep(root, "fig4", cells, st.size.fig4Runs, store)
			rep.Digest = resultDigest(r.resolve(root, st.def, st.size.fig4Runs, store, nil, len(cells)))
		}
		rep.Runs = len(cells) * st.size.fig4Runs
	case "fig4-warm":
		cells := gridFor("fig4")
		for i := 0; i < st.size.warmTraced; i++ {
			store := r.open(root, st.dir)
			if store == nil {
				continue
			}
			d := resultDigest(r.resolve(root, st.def, st.size.fig4Runs, store, nil, len(cells)))
			if rep.Digest != "" && d != rep.Digest {
				r.check("repeated warm resolves gave different outputs")
			}
			rep.Digest = d
			rep.Runs += len(cells) * st.size.fig4Runs
		}
		extra = func(parent int) { r.reads(parent, st.dir, "fig4", cells, st.size.fig4Runs, 3) }
	case "fig7-metered":
		cells := gridFor("fig7")
		if store := r.open(root, filepath.Join(stores, "fig7")); store != nil {
			col := metrics.NewCollector()
			results := r.metered(root, "fig7", cells, st.size.fig7Runs, store, col)
			rep.MetricsDigest = snapshotDigest(col.Snapshot())
			rep.Digest = resultDigest(r.resolve(root, st.def, st.size.fig7Runs, store, metrics.NewCollector(), len(cells)))
			extra = func(parent int) { r.stepCompare(parent, cells, st.size.fig7Runs, results) }
		}
		rep.Runs = len(cells) * st.size.fig7Runs
	case "machine-spec":
		if cfg, ok := r.loadSpec(root, specPath); ok {
			got := r.machines(root, cfg, st.size.machineRuns)
			rep.Digest = machineDigest(got)
			extra = func(parent int) { r.solo(parent, cfg, got) }
		}
		rep.Runs = st.size.machineRuns
	}
	tr.finish(root, 0, int64(rep.Runs))
	rep.WallS = float64(tr.spans[root-1].dur()) / 1e9
	if extra != nil {
		x := tr.root("bench.extra", groupExtra)
		extra(x)
		tr.finish(x, 0, 0)
	}
	probe(r, st.size.probeRuns, filepath.Join(stores, "probe"))

	rep.Layers = layerMetrics(tr.spans, r.workers)
	rep.Attempted, rep.Failed = int(r.attempted.Load()), int(r.failed.Load())
	rep.Errors, rep.Checks = r.errs, r.checks
	if err := checkNesting(tr.spans); err != nil {
		rep.Checks = append(rep.Checks, err.Error())
	}
	for id, self := range selfTimes(tr.spans) {
		if self < 0 {
			rep.Checks = append(rep.Checks, fmt.Sprintf("span %d has negative self time", id))
		}
	}
	if err := tr.write(spansPath); err != nil {
		rep.Checks = append(rep.Checks, "writing spans: "+err.Error())
	}
	return rep
}

// probeApps are the applications the probe battery simulates.
var probeApps = []string{"CHIMERA", "XGC", "POP"}

// probe is the fixed battery that gives every layer a reading on every
// workload: a small cross-checked sweep, a metered sweep, cache reads,
// cluster record passes, spec load/compile and a few machine runs.
func probe(r *replayer, runs int, dir string) {
	root := r.tr.root("bench.probe", groupProbe)
	defer r.tr.finish(root, 0, 0)
	var cfg machine.Config
	ok := false
	for i := 0; i < 8; i++ {
		cfg, ok = r.loadSpec(root, specPath)
	}
	r.clusterProbe(root, []string{"CHIMERA", "XGC", "POP", "S3D"}, 200)
	store := r.open(root, dir)
	if store == nil {
		return
	}
	cells := make([]cell, len(probeApps))
	for i, app := range probeApps {
		cells[i] = newCell(app, policy.M1, 1)
	}
	r.sweep(root, "probe", cells, runs, store)
	r.metered(root, "probe-metered", cells, max(1, runs/4), store, metrics.NewCollector())
	r.reads(root, dir, "probe", cells, runs, 10)
	if ok {
		r.solo(root, cfg, r.machines(root, cfg, max(1, runs/2)))
	}
}
