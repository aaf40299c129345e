package machine

// SimulateFresh is Simulate on a record of its own that never enters
// the pool — the reference a recycled record must match — and also
// returns how many events the run's engine dispatched.
func SimulateFresh(cfg Config, seed uint64) (Result, uint64) {
	return runOn(newRun(), prepare(cfg), seed)
}

// SimulatePooled is Simulate with the engine's dispatched count, and
// whether the pool handed out a record that had run before.
func SimulatePooled(cfg Config, seed uint64) (res Result, dispatched uint64, recycled bool) {
	r := runPool.Get().(*run)
	recycled = len(r.tenants) > 0
	res, dispatched = runOn(r, prepare(cfg), seed)
	runPool.Put(r)
	return res, dispatched, recycled
}

// runOn runs one seed of p on record r, as run.simulate does, counting
// the engine's dispatches; a panicking run leaves the record as it was.
func runOn(r *run, p *prepared, seed uint64) (Result, uint64) {
	r.begin(p, seed)
	r.eng.RunAll()
	n := r.eng.Dispatched()
	return r.finish(), n
}
