package experiments

import (
	"errors"
	"fmt"
	"os"

	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/runcache"
	"pckpt/internal/stats"
)

// ErrInterrupted is returned by Resolve, and so by Run, when
// Params.Interrupt was closed before a cell the cache could not serve.
// Every cell resolved before it is already in the cache, so a rerun
// against the same cache directory resumes at the unfinished tail.
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

// Resolve turns a cell into its aggregate; it is the only code that
// does. A cell with no faults of its own takes p.Faults. A cache hit
// must carry a metrics snapshot when p.Metrics collects (the recompute's
// Put upgrades an unmetered entry). Only a miss checks p.Interrupt, so
// an interrupted rerun still fast-forwards through its cached prefix.
// A cache write error is returned: dropping entries would break the
// resume contract.
func Resolve(p Params, c Cell) (*stats.Agg, error) {
	if p.Faults.Enabled() && !c.Platform.Faults.Enabled() {
		c.Platform.Faults = p.Faults
	}
	key := runcache.Key{
		Experiment:  p.Experiment,
		Label:       c.Label,
		Policy:      c.Policy.String(),
		Platform:    c.Platform.CanonicalString(),
		Runs:        c.Runs,
		Seed:        p.Seed,
		Fingerprint: runcache.Fingerprint(),
	}
	meter := p.Metrics != nil
	if p.Cache != nil {
		if agg, snap, ok := p.Cache.Get(key, meter); ok {
			p.Metrics.Add(snap)
			return agg, nil
		}
	}
	select {
	case <-p.Interrupt:
		return nil, ErrInterrupted
	default:
	}
	agg, snap := SimulateSweepN(c.Tier, c.Policy, c.Platform, c.Runs, c.Seed, p.Workers, meter)
	p.Metrics.Add(snap)
	if p.Cache != nil {
		if err := p.Cache.Put(key, agg, snap); err != nil {
			return nil, err
		}
	}
	return agg, nil
}

// resolveError carries a Resolve error out of an experiment function,
// which returns none, to Run.
type resolveError struct{ error }

// mustResolve is Resolve for experiment functions: it adds the cell's
// failed runs to Run's ledger and panics with an error for Run to return.
func mustResolve(p Params, c Cell) *stats.Agg {
	agg, err := Resolve(p, c)
	if err != nil {
		panic(resolveError{err})
	}
	if p.failed != nil {
		*p.failed = append(*p.failed, agg.Failed()...)
	}
	return agg
}

// Run executes one registry entry: it stamps the registry ID into Params
// as the cache-key namespace, returns a resolve error (ErrInterrupted, a
// cache write failure), and lists in Result.Failed the failed runs of
// every cell resolved. A Def's Run function called directly keys under
// "", panics on a resolve error and leaves Failed empty.
func Run(d Def, p Params) (res Result, err error) {
	p.Experiment = d.ID
	var failed []stats.FailedRun
	p.failed = &failed
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
	res.Failed = failed
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
