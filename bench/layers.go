package main

import (
	"math"
	"sort"

	"pckpt/internal/workload"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced, host-side metrics of every workload.
var endToEnd = []metricDef{
	{"runs_per_s", "runs/s"},
	{"cpu_ms_per_run", "ms"},
	{"setup_s", "s"},
	{"allocs_per_run", "allocs"},
	{"alloc_kb_per_run", "KB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, named after the repo's modules.
var perLayer = []metricDef{
	{"experiments.crosscheck_share", "ratio"},
	{"experiments.pool_util", "ratio"},
	{"experiments.self_s", "s"},
	{"stepsim.run_ms.p50", "ms"},
	{"stepsim.run_ms.p99", "ms"},
	{"stepsim.run_ms.p50.CHIMERA", "ms"},
	{"stepsim.run_ms.p50.XGC", "ms"},
	{"stepsim.run_ms.p50.POP", "ms"},
	{"stepsim.allocs_per_run", "allocs"},
	{"stepsim.us_per_ckpt", "us"},
	{"cluster.ns_per_node_record", "ns"},
	{"cluster.est_share.CHIMERA", "ratio"},
	{"cluster.est_share.XGC", "ratio"},
	{"cluster.est_share.POP", "ratio"},
	{"crmodel.run_ms.p50", "ms"},
	{"crmodel.run_ms.p95", "ms"},
	{"crmodel.allocs_per_run", "allocs"},
	{"crmodel.metered_run_ms.p50", "ms"},
	{"metrics.metered_over_step_x", "x"},
	{"metrics.collector_add_ms", "ms"},
	{"runcache.open_ms", "ms"},
	{"runcache.get_ms.p50", "ms"},
	{"runcache.get_ms.p90", "ms"},
	{"runcache.put_ms.p50", "ms"},
	{"runcache.put_ms.p90", "ms"},
	{"runcache.hit_ratio", "ratio"},
	{"runcache.kb_per_entry", "KB"},
	{"machine.run_ms.p50", "ms"},
	{"machine.run_ms.p99", "ms"},
	{"machine.allocs_per_run", "allocs"},
	{"machine.repricings_per_run", "count"},
	{"machine.solo_share", "ratio"},
	{"scenario.load_ms", "ms"},
	{"scenario.compile_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// spanIndex answers per-layer questions over one traced run. Each query
// reads the workload's own spans (replay and extra groups) when the
// workload reached that layer, and the probe battery's otherwise, so every
// workload reports every layer.
type spanIndex struct {
	byName map[string][]span
}

func newSpanIndex(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
	}
	return ix
}

// side picks the spans of one name, optionally for one application:
// the workload's when it has any, else the probe's.
func (ix spanIndex) side(name, app string) []span {
	var own, probe []span
	for _, s := range ix.byName[name] {
		if app != "" && s.App != app {
			continue
		}
		if s.Group == groupProbe {
			probe = append(probe, s)
		} else {
			own = append(own, s)
		}
	}
	if len(own) > 0 {
		return own
	}
	return probe
}

// sameSide keeps the spans of name that lie in the same side as ref.
func (ix spanIndex) sameSide(name string, ref []span) []span {
	if len(ref) == 0 {
		return nil
	}
	probeSide := ref[0].Group == groupProbe
	var out []span
	for _, s := range ix.byName[name] {
		if (s.Group == groupProbe) == probeSide {
			out = append(out, s)
		}
	}
	return out
}

// sameApps keeps the spans of ss whose application appears in ref.
func sameApps(ss, ref []span) []span {
	apps := map[string]bool{}
	for _, s := range ref {
		apps[s.App] = true
	}
	var out []span
	for _, s := range ss {
		if apps[s.App] {
			out = append(out, s)
		}
	}
	return out
}

func sumDur(ss []span) (t int64) {
	for _, s := range ss {
		t += s.dur()
	}
	return t
}

func sumCount(ss []span) (n int64) {
	for _, s := range ss {
		n += s.Count
	}
	return n
}

func sumAllocs(ss []span) (n uint64) {
	for _, s := range ss {
		n += s.Allocs
	}
	return n
}

// ratio divides, giving 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// durQuantile is the q-quantile of the spans' durations in milliseconds
// (nearest rank).
func durQuantile(ss []span, q float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	ds := make([]int64, len(ss))
	for i, s := range ss {
		ds[i] = s.dur()
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(math.Ceil(q*float64(len(ds)))) - 1
	return float64(ds[max(0, k)]) / 1e6
}

// layerMetrics computes every per-layer metric except trace.overhead_pct,
// which needs the untraced run and is added by the parent. workers is the
// replay's pool size.
func layerMetrics(spans []span, workers int) map[string]float64 {
	ix := newSpanIndex(spans)
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	m := map[string]float64{}
	self := selfTimes(spans)

	sweeps := ix.side("experiments.sweep", "")
	configs := ix.sameSide("experiments.config", sweeps)
	var selfNS int64
	for _, s := range append(append([]span{}, sweeps...), configs...) {
		selfNS += self[s.ID]
	}
	m["experiments.self_s"] = float64(selfNS) / 1e9
	m["experiments.crosscheck_share"] = ratio(float64(sumDur(ix.sameSide("crmodel.crosscheck", sweeps))), float64(sumDur(sweeps)))
	// Pool utilisation: busy run time over pool wall × workers (a pool
	// smaller than the worker count has fewer workers to keep busy).
	var busy, capacity float64
	for _, name := range []string{"stepsim.pool", "crmodel.pool", "crmodel.metered_pool"} {
		for _, p := range ix.sameSide(name, sweeps) {
			busy += float64(sumDur(kids[p.ID]))
			capacity += float64(p.dur()) * float64(min(workers, len(kids[p.ID])))
		}
	}
	m["experiments.pool_util"] = ratio(busy, capacity)

	steps := ix.side("stepsim.run", "")
	m["stepsim.run_ms.p50"] = durQuantile(steps, 0.50)
	m["stepsim.run_ms.p99"] = durQuantile(steps, 0.99)
	stepPools := ix.sameSide("stepsim.pool", steps)
	m["stepsim.allocs_per_run"] = ratio(float64(sumAllocs(stepPools)), float64(sumCount(stepPools)))
	m["stepsim.us_per_ckpt"] = ratio(float64(sumDur(steps))/1e3, float64(sumCount(steps)))

	// The median span rate, so one preempted span cannot skew the estimate.
	var rates []float64
	for _, s := range ix.side("cluster.record", "") {
		rates = append(rates, ratio(float64(s.dur()), float64(s.Count)))
	}
	nsPerRecord := median(rates)
	m["cluster.ns_per_node_record"] = nsPerRecord
	for _, app := range probeApps {
		runs := ix.side("stepsim.run", app)
		m["stepsim.run_ms.p50."+app] = durQuantile(runs, 0.50)
		// Each checkpoint is priced as one BB and one PFS record pass
		// over every node of the application.
		a, _ := workload.ByName(app)
		est := 2 * nsPerRecord * float64(a.Nodes) * float64(sumCount(runs))
		m["cluster.est_share."+app] = ratio(est, float64(sumDur(runs)))
	}

	apps := ix.side("crmodel.run", "")
	m["crmodel.run_ms.p50"] = durQuantile(apps, 0.50)
	m["crmodel.run_ms.p95"] = durQuantile(apps, 0.95)
	checks := ix.sameSide("crmodel.crosscheck", apps)
	m["crmodel.allocs_per_run"] = ratio(float64(sumAllocs(checks)), float64(sumCount(checks)))
	meteredRuns := ix.side("crmodel.metered_run", "")
	m["crmodel.metered_run_ms.p50"] = durQuantile(meteredRuns, 0.50)
	m["metrics.metered_over_step_x"] = ratio(durQuantile(meteredRuns, 0.50), durQuantile(sameApps(ix.sameSide("stepsim.run", meteredRuns), meteredRuns), 0.50))
	m["metrics.collector_add_ms"] = durQuantile(ix.side("metrics.collector_add", ""), 0.50)

	m["runcache.open_ms"] = durQuantile(ix.side("runcache.open", ""), 0.50)
	gets := ix.side("runcache.get", "")
	m["runcache.get_ms.p50"] = durQuantile(gets, 0.50)
	m["runcache.get_ms.p90"] = durQuantile(gets, 0.90)
	m["runcache.hit_ratio"] = ratio(float64(sumCount(gets)), float64(len(gets)))
	puts := ix.side("runcache.put", "")
	m["runcache.put_ms.p50"] = durQuantile(puts, 0.50)
	m["runcache.put_ms.p90"] = durQuantile(puts, 0.90)
	entries := ix.side("runcache.entry", "")
	m["runcache.kb_per_entry"] = ratio(float64(sumCount(entries))/1024, float64(len(entries)))

	machines := ix.side("machine.run", "")
	m["machine.run_ms.p50"] = durQuantile(machines, 0.50)
	m["machine.run_ms.p99"] = durQuantile(machines, 0.99)
	msweeps := ix.sameSide("machine.sweep", machines)
	m["machine.allocs_per_run"] = ratio(float64(sumAllocs(msweeps)), float64(sumCount(msweeps)))
	m["machine.repricings_per_run"] = ratio(float64(sumCount(machines)), float64(len(machines)))
	m["machine.solo_share"] = ratio(float64(sumDur(ix.sameSide("machine.solo", machines))), float64(sumDur(msweeps)))

	m["scenario.load_ms"] = durQuantile(ix.side("scenario.load", ""), 0.50)
	m["scenario.compile_ms"] = durQuantile(ix.side("scenario.compile", ""), 0.50)
	return m
}
