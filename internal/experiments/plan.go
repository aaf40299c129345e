package experiments

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/runcache"
	"pckpt/internal/stats"
	"pckpt/internal/sweep"
)

// ErrInterrupted is returned by Run and ResolveCells when
// Params.Interrupt closed before every cell resolved. Every cell whose
// seeds all finished is already in the cache, so a rerun against the
// same cache directory resumes with the rest.
var ErrInterrupted = errors.New("experiments: sweep interrupted")

// Cell is one configuration of a sweep: Runs seeds of Policy on
// Platform, simulated on Tier from base seed Seed. Its cache key holds
// Label and the Params' Seed, so Seed must follow from those two.
type Cell struct {
	Tier     Tier
	Label    string
	Policy   policy.ID
	Platform platform.Config
	Runs     int
	Seed     uint64
}

// A plan is a set of cells resolved together: declared first, then
// executed on one pool, then taken in declaration order. Run declares an
// experiment's cells by running its function once against the plan and
// renders by running it again (see mustResolve).
type plan struct {
	declaring bool
	cells     []planCell
	next      int               // the cell the render pass takes next
	failed    []stats.FailedRun // the taken cells' failed runs, in order
	halt      atomic.Bool       // a Put failed: dispatch no more seeds
	err       error             // why a cell is unresolved, once executed
}

// planCell is one declared cell: what the declaring call's Params said
// about it and, once executed, its resolution.
type planCell struct {
	Cell
	experiment string // the cache-key namespace
	keySeed    uint64 // the Params' Seed the cache key holds
	cache      *runcache.Store
	meter      bool

	key     runcache.Key
	run     Runner
	results []stats.RunResult
	frames  []metrics.Frame // metered runs' frames, by seed index
	left    atomic.Int64    // seeds not yet finished
	mu      sync.Mutex      // guards panics
	panics  []seedPanic     // failed seeds, in completion order

	agg  *stats.Agg // nil until resolved
	snap *metrics.Snapshot
	err  error // the cell's Put error
}

// seedPanic is one failed seed: its index and its panic, rendered.
type seedPanic struct {
	i   int
	err string
}

// placeholder is the aggregate a declared cell reads as until the render
// pass: no runs, so every mean is zero.
var placeholder stats.Agg

// declare records a cell as p's resolving call describes it. A cell with
// no faults of its own takes p.Faults.
func (pl *plan) declare(p Params, c Cell) {
	if p.Faults.Enabled() && !c.Platform.Faults.Enabled() {
		c.Platform.Faults = p.Faults
	}
	pl.cells = append(pl.cells, planCell{
		Cell:       c,
		experiment: p.Experiment,
		keySeed:    p.Seed,
		cache:      p.Cache,
		meter:      p.Metrics != nil,
	})
}

// execute resolves every declared cell on one pool of workers workers
// (GOMAXPROCS when zero or negative). Every cache lookup runs first, in
// parallel, and prepares the cells the cache cannot serve; then every
// seed of those cells runs, cell by cell in declaration order. The
// worker that finishes a cell's last seed aggregates it and Puts it.
// Once interrupt closes or a Put fails, no further seed starts; cells
// left with unfinished seeds stay unresolved and are never Put.
func (pl *plan) execute(workers int, interrupt <-chan struct{}) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cells := pl.cells
	sweep.Each(len(cells), workers, nil, func(i int) { cells[i].lookup() })

	todo := make([]*planCell, 0, len(cells))
	starts := make([]int, 1, len(cells)+1) // todo[k]'s seeds are [starts[k], starts[k+1])
	for i := range cells {
		if c := &cells[i]; c.agg == nil && c.Runs > 0 {
			todo = append(todo, c)
			starts = append(starts, starts[len(starts)-1]+c.Runs)
		}
	}
	idle := make(chan *metrics.Registry, workers) // a return never blocks: each worker holds at most one
	stop := func() bool {
		select {
		case <-interrupt:
			return true
		default:
			return pl.halt.Load()
		}
	}
	sweep.Each(starts[len(todo)], workers, stop, func(j int) {
		k := sort.SearchInts(starts, j+1) - 1
		c := todo[k]
		c.runSeed(j-starts[k], idle)
		if c.left.Add(-1) == 0 {
			c.finish()
			if c.err != nil {
				pl.halt.Store(true)
			}
		}
	})

	for i := range cells {
		if err := cells[i].err; err != nil {
			pl.err = err
			return
		}
	}
	for i := range cells {
		if cells[i].agg == nil {
			pl.err = ErrInterrupted
			return
		}
	}
}

// lookup serves the cell from the cache or readies it to simulate. A
// cache hit must carry a metrics snapshot when the cell is metered (the
// recompute's Put upgrades an unmetered entry). A cell that fails to
// prepare fails each of its runs with that error; a cell of no runs
// resolves at once.
func (c *planCell) lookup() {
	if c.cache != nil {
		var text [1024]byte // a platform's text is about 400 bytes
		c.key = runcache.Key{
			Experiment:  c.experiment,
			Label:       c.Label,
			Policy:      c.Policy.String(),
			Platform:    string(c.Platform.AppendCanonical(text[:0])),
			Runs:        c.Runs,
			Seed:        c.keySeed,
			Fingerprint: runcache.Fingerprint(),
		}
		if agg, snap, ok := c.cache.Get(c.key, c.meter); ok {
			c.agg, c.snap = agg, snap
			return
		}
	}
	if c.Runs <= 0 {
		c.finish()
		return
	}
	run, err := c.Tier.Prepare(c.Policy, c.Platform)
	if err != nil {
		run = func(uint64, *metrics.Registry) stats.RunResult { panic(err) }
	}
	c.run = run
	c.results = make([]stats.RunResult, c.Runs)
	if c.meter {
		c.frames = make([]metrics.Frame, c.Runs)
	}
	c.left.Store(int64(c.Runs))
}

// runSeed runs seed i of the cell. A metered run records into an idle
// registry, or a new one, and returns it reset once its frame is taken;
// a run that panics drops its registry with whatever it recorded.
func (c *planCell) runSeed(i int, idle chan *metrics.Registry) {
	seed := sweep.Seed(c.Seed, i)
	var reg *metrics.Registry
	if c.meter {
		select {
		case reg = <-idle:
		default:
			reg = metrics.New()
		}
	}
	r, err := sweep.Try(func(seed uint64) stats.RunResult { return c.run(seed, reg) }, seed)
	if err != "" {
		c.mu.Lock()
		c.panics = append(c.panics, seedPanic{i, err})
		c.mu.Unlock()
		return
	}
	c.results[i] = r
	if reg != nil {
		c.frames[i] = reg.Frame(r.WallSeconds)
		reg.Reset()
		idle <- reg
	}
}

// finish aggregates the cell's completed runs in seed order, folds a
// metered cell's frames in seed order, and Puts the cell.
func (c *planCell) finish() {
	var failed []stats.FailedRun
	if len(c.panics) > 0 {
		sort.Slice(c.panics, func(a, b int) bool { return c.panics[a].i < c.panics[b].i })
		desc := fmt.Sprintf("tier=%s model=%s app=%s", c.Tier.Name, c.Policy, c.Platform.App.Name)
		for _, f := range c.panics {
			failed = append(failed, stats.FailedRun{Seed: sweep.Seed(c.Seed, f.i), Config: desc, Err: f.err})
		}
	}
	agg := stats.NewAgg(sweep.Completed(c.results, c.Seed, failed), failed)
	if c.meter {
		var fold metrics.Fold
		for _, f := range c.frames {
			fold.Add(f) // a run that panicked left the zero frame
		}
		c.snap, c.frames = fold.Snapshot(), nil
	}
	if c.cache != nil {
		c.err = c.cache.Put(c.key, agg, c.snap)
	}
	c.agg = agg
}

// take returns the next declared cell's resolution, adding its metrics
// snapshot to p.Metrics. c must be the cell declared next: a render pass
// that asks for any other cell is an experiment whose cell set is not a
// function of its Params, and fails.
func (pl *plan) take(p Params, c Cell) (*stats.Agg, error) {
	if pl.next == len(pl.cells) {
		return nil, fmt.Errorf("experiments: %s: cell %d (%s %s) was never declared: only %d were", p.Experiment, pl.next, c.Label, c.Policy, len(pl.cells))
	}
	pc := &pl.cells[pl.next]
	if pc.Tier.Name != c.Tier.Name || pc.Label != c.Label || pc.Policy != c.Policy || pc.Runs != c.Runs || pc.Seed != c.Seed {
		return nil, fmt.Errorf("experiments: %s: cell %d asked for as %s %s on tier %s (%d runs, seed %#x) was never declared: the declare pass had %s %s on tier %s (%d runs, seed %#x) there",
			p.Experiment, pl.next, c.Label, c.Policy, c.Tier.Name, c.Runs, c.Seed, pc.Label, pc.Policy, pc.Tier.Name, pc.Runs, pc.Seed)
	}
	pl.next++
	if pc.agg == nil || pc.err != nil {
		return nil, pl.err
	}
	p.Metrics.Add(pc.snap)
	return pc.agg, nil
}

// ResolveCells resolves cells as one plan and returns their aggregates
// in cell order; with Run, whose experiments resolve through the same
// plan, it is the only code that turns cells into aggregates. Every
// cache lookup runs first, in parallel; then every seed of every cell
// the cache could not serve runs on one pool of p.Workers workers
// (default GOMAXPROCS), and each such cell is Put as its last seed ends.
// A cell with no faults of its own takes p.Faults. Each cell's metrics
// snapshot is added to p.Metrics in cell order.
//
// Once p.Interrupt closes no further seed starts: every cell whose seeds
// all finished is still Put, a fully cached set still resolves, and
// otherwise ResolveCells returns ErrInterrupted. A cache write error
// stops dispatch too and is returned, the first in cell order: dropping
// entries would break the resume contract.
func ResolveCells(p Params, cells []Cell) ([]*stats.Agg, error) {
	pl := &plan{}
	for _, c := range cells {
		pl.declare(p, c)
	}
	pl.execute(p.Workers, p.Interrupt)
	aggs := make([]*stats.Agg, len(cells))
	for i, c := range cells {
		agg, err := pl.take(p, c)
		if err != nil {
			return nil, err
		}
		aggs[i] = agg
	}
	return aggs, nil
}

// resolveError carries a resolve error out of an experiment function,
// which returns none, to Run.
type resolveError struct{ error }

// mustResolve is how experiment functions resolve a cell. Under Run it
// declares the cell in the first pass, returning an empty placeholder,
// and in the second takes the resolved cell and adds its failed runs to
// Run's ledger. A Def's function called directly resolves each cell as
// a one-cell plan. A resolve error panics, for Run to return.
func mustResolve(p Params, c Cell) *stats.Agg {
	pl := p.plan
	switch {
	case pl == nil:
		aggs, err := ResolveCells(p, []Cell{c})
		if err != nil {
			panic(resolveError{err})
		}
		return aggs[0]
	case pl.declaring:
		pl.declare(p, c)
		return &placeholder
	}
	agg, err := pl.take(p, c)
	if err != nil {
		panic(resolveError{err})
	}
	pl.failed = append(pl.failed, agg.Failed()...)
	return agg
}

// Run executes one registry entry in three steps: it runs the entry's
// function once to declare its cells, resolves them all as one plan
// (ResolveCells' contract), and runs the function again to render from
// them in declaration order. An entry that declares no cells returns its
// first pass's result. Run stamps the registry ID into Params as the
// cache-key namespace, returns a resolve error (ErrInterrupted, a cache
// write failure, a render pass that asks for an undeclared cell), and
// lists in Result.Failed the failed runs of every cell, in declaration
// order. A Def's Run function called directly keys under "", panics on a
// resolve error and leaves Failed empty.
func Run(d Def, p Params) (res Result, err error) {
	p.Experiment = d.ID
	pl := &plan{declaring: true}
	p.plan = pl
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(resolveError)
			if !ok {
				panic(r)
			}
			err = re.error
		}
	}()
	res = d.Run(p)
	if len(pl.cells) == 0 {
		return res, nil
	}
	pl.execute(p.Workers, p.Interrupt)
	pl.declaring = false
	res = d.Run(p)
	if pl.next != len(pl.cells) {
		return Result{}, fmt.Errorf("experiments: %s: declared %d cells but rendered only %d", d.ID, len(pl.cells), pl.next)
	}
	res.Failed = pl.failed
	return res, nil
}

// WarnFailed writes one warning line to stderr for each run of a sweep
// that panicked instead of completing: the printed means cover only the
// completed runs.
func WarnFailed(failed []stats.FailedRun) {
	for _, f := range failed {
		fmt.Fprintf(os.Stderr, "warning: run with seed %d failed (%s): %s\n", f.Seed, f.Config, f.Err)
	}
}
