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

// RunFresh is Cell.Run on a record of its own that never enters the
// pool — the reference a recycled record must match. It also returns the
// engine's Dispatched count.
func RunFresh(c *Cell, seed uint64, reg *metrics.Registry) (stats.RunResult, uint64) {
	return runOn(c, newRecord(), seed, reg)
}

// RunPooled is Cell.Run with the engine's Dispatched count, and whether
// the pool handed out a record that had run before.
func RunPooled(c *Cell, seed uint64, reg *metrics.Registry) (res stats.RunResult, dispatched uint64, recycled bool) {
	a := recordPool.Get().(*appSim)
	recycled = a.runs > 0
	res, dispatched = runOn(c, a, seed, reg)
	recordPool.Put(a)
	return res, dispatched, recycled
}

// runOn runs one seed of c on record a, as Cell.Run does, and clears
// the record; a panicking run leaves it as it was.
func runOn(c *Cell, a *appSim, seed uint64, reg *metrics.Registry) (stats.RunResult, uint64) {
	eng := sim.NewEngine()
	eng.SetWatchdog(sim.RunEventBudget, 0)
	c.startOn(a, eng, seed, AppOptions{Metrics: reg})
	eng.RunAll()
	n := eng.Dispatched()
	eng.Release()
	res := a.Res
	a.clear()
	return res, n
}
