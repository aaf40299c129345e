// Package metrics is the simulation-time observability layer: a registry
// of counters, gauges, and log-bucketed streaming histograms that the
// simulators populate as a run unfolds, designed — like trace.Recorder —
// so that a disabled registry costs nothing on the hot path.
//
// The zero-cost contract works through typed handles: code resolves each
// instrument once at setup (Registry.Counter / Gauge / Histogram, all of
// which return nil when the registry itself is nil) and the hot path calls
// methods on the handle. Every handle method is a no-op on a nil receiver
// and allocates nothing on a live one, so instrumented code never branches
// on "is metering enabled" and testing.AllocsPerRun can prove the off
// path free.
//
// Time is the simulation clock (float64 seconds), never the wall clock:
// gauges take the current simulation time explicitly and integrate the
// tracked value over it, which is what makes quantities like "BB drain
// queue depth over sim time" well defined.
//
// A Registry is single-run state and is not safe for concurrent use; the
// worker-pool runner gives every run its own registry and merges the
// resulting Snapshots after the fact (snapshots of identical bucket
// layout merge exactly), so the hot path stays lock-free.
package metrics

import (
	"math"
	"sync"
)

// Counter is a monotonically accumulating value (counts or seconds).
type Counter struct {
	n float64
}

// Add accumulates v. No-op on a nil counter.
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	c.n += v
}

// Inc accumulates 1.
func (c *Counter) Inc() { c.Add(1) }

// Gauge tracks an instantaneous value over simulation time, accumulating
// the time integral so a snapshot can report the time-weighted mean (the
// right average for quantities like queue depth or vulnerable-node count
// that are sampled at state changes, not on a fixed cadence).
type Gauge struct {
	set           bool
	last, lastT   float64
	integral, dur float64
	min, max      float64
}

// Set records the value v at simulation time now. Calls must arrive in
// non-decreasing time order (simulation order guarantees this). No-op on
// a nil gauge.
func (g *Gauge) Set(now, v float64) {
	if g == nil {
		return
	}
	if !g.set {
		g.set = true
		g.last, g.lastT = v, now
		g.min, g.max = v, v
		return
	}
	if now > g.lastT {
		g.integral += (now - g.lastT) * g.last
		g.dur += now - g.lastT
		g.lastT = now
	}
	g.last = v
	if v < g.min {
		g.min = v
	}
	if v > g.max {
		g.max = v
	}
}

// Histogram bucket layout: values in [histMin, histMin·2^histOctaves) map
// to log-spaced buckets with bucketsPerOctave buckets per power of two
// (≈19 % relative width); bucket 0 catches everything below histMin
// (including zero), the top bucket everything above the range. The layout
// is a package constant so any two histograms merge bucket-for-bucket.
const (
	histMin          = 1e-6 // one simulated microsecond
	bucketsPerOctave = 4
	histOctaves      = 44 // covers up to histMin·2^44 ≈ 1.8e7 s
	numBuckets       = 2 + histOctaves*bucketsPerOctave
)

// Histogram is a streaming log-bucketed histogram over non-negative
// values (durations in seconds, bandwidths in GB/s). It records exact
// count/sum/min/max plus bucket counts from which quantiles are
// estimated to within one bucket's relative width.
type Histogram struct {
	count    uint64
	sum      float64
	min, max float64
	buckets  [numBuckets]uint64
}

// bucketIndex maps a value to its bucket. NaN and negatives land in the
// underflow bucket (the simulators never produce them; losing them to
// bucket 0 keeps the hot path branch-free).
func bucketIndex(v float64) int {
	if !(v >= histMin) {
		return 0
	}
	i := 1 + int(bucketsPerOctave*math.Log2(v/histMin))
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// bucketLo returns bucket i's lower bound (0 for the underflow bucket).
func bucketLo(i int) float64 {
	if i <= 0 {
		return 0
	}
	return histMin * math.Exp2(float64(i-1)/bucketsPerOctave)
}

// bucketHi returns bucket i's upper bound.
func bucketHi(i int) float64 {
	if i >= numBuckets-1 {
		return math.Inf(1)
	}
	return histMin * math.Exp2(float64(i)/bucketsPerOctave)
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count++
	h.sum += v
	h.buckets[bucketIndex(v)]++
}

// Registry holds one simulation run's instruments, keyed by name. The
// accessors are idempotent (same name → same handle) and nil-safe: on a
// nil registry they return nil handles whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}
