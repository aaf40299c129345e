package stepsim

import (
	"pckpt/internal/metrics"
	"pckpt/internal/sim"
	"pckpt/internal/stats"
)

// startFresh starts one unmetered run of cfg on a record of its own that
// never enters the pool, so a test may read the record's state after the
// run.
func startFresh(eng *sim.Engine, cfg Config, seed uint64) *appSim {
	c, err := Prepare(cfg)
	if err != nil {
		panic(err)
	}
	a := newRecord()
	c.startOn(a, eng, seed, AppOptions{})
	return a
}

// RunFresh is Cell.Run, with the event watchdog armed at budget, on a
// record of its own that never enters the pool, and always in full: it
// never restarts from the cell's prefix — the reference a recycled
// record, and a run that restarts, must match. It also returns the
// engine's Dispatched count.
func RunFresh(c *Cell, seed uint64, reg *metrics.Registry, budget uint64) (stats.RunResult, uint64) {
	res, n, _ := c.runOn(newRecord(), seed, reg, nil, budget)
	return res, n
}

// RunPooled is Cell.Run, in full, with the engine's Dispatched count, and
// whether the pool handed out a record that had run before.
func RunPooled(c *Cell, seed uint64, reg *metrics.Registry) (res stats.RunResult, dispatched uint64, recycled bool) {
	a := recordPool.Get().(*appSim)
	recycled = a.runs > 0
	res, dispatched, _ = c.runOn(a, seed, reg, nil, sim.RunEventBudget)
	recordPool.Put(a)
	return res, dispatched, recycled
}

// RunCell is Cell.Run with the event watchdog armed at budget, returning
// the engine's Dispatched count. It stores in credited the dispatches the
// run credited by restarting from the cell's prefix (0 for a run made in
// full), also when the run panics.
func RunCell(c *Cell, seed uint64, reg *metrics.Registry, budget uint64, credited *uint64) (res stats.RunResult, dispatched uint64) {
	pre := c.prefixFor(reg)
	a := recordPool.Get().(*appSim)
	defer func() {
		if v := recover(); v != nil {
			*credited = a.credited // a panicking run leaves its record as it was
			panic(v)
		}
	}()
	res, dispatched, *credited = c.runOn(a, seed, reg, pre, budget)
	recordPool.Put(a)
	return res, dispatched
}

// Credited returns the dispatches a started app credited by restarting
// from its cell's prefix; read it before Release.
func Credited(h *AppHandle) uint64 { return h.a.credited }

// PrefixSnapshots reports how many snapshots the cell's recorded prefix
// holds (0: none recorded, or not yet).
func PrefixSnapshots(c *Cell) int {
	if c.prefix == nil {
		return 0
	}
	return c.prefix.taken()
}
