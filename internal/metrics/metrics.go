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
// A Registry holds one run's state at a time and is not safe for
// concurrent use. A metered sweep keeps one registry per worker: each run
// records into a Reset registry, which forgets every series exactly as a
// fresh one would, and leaves behind a Frame, its raw state without maps
// or quantiles, which FrameInto writes over what an earlier run left in
// it. A Fold merges the frames in seed order, each as soon as every
// earlier seed's is in (all histograms share one bucket layout, so the
// merge is exact), which frees the frame for a later run, and computes
// each merged histogram's quantiles once, at Snapshot. The hot path stays
// lock-free, and a warm metered run allocates neither a registry nor a
// frame.
//
// A Snapshot's JSON form (WriteJSON, the result cache's metered entries)
// is encoding/json's, except that a non-finite float — a histogram that
// observed +Inf carries it in its sum, extremes and quantiles — is
// written as the string "+Inf", "-Inf" or "NaN", which encoding/json
// would refuse; decoding restores it bit for bit.
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

// bucketStart[k-1] is the first float64 of bucket k, for k in
// [1, numBuckets). The layout's definition is the truncation
// 1 + int(bucketsPerOctave·math.Log2(v/histMin)); these are the float64s
// where it steps, which sit up to 20 ulps from the ideal bounds
// histMin·2^((k-1)/4). TestBucketStartMatchesLog2 re-derives every entry
// from that definition. Row r holds the four bucket starts inside the
// binary octave [2^(r-20), 2^(r-19)).
var bucketStart = [numBuckets - 1]float64{
	1e-06, 1.1892071150027212e-06, 1.4142135623730952e-06, 1.6817928305074288e-06,
	2e-06, 2.378414230005442e-06, 2.82842712474619e-06, 3.3635856610148576e-06,
	4e-06, 4.756828460010884e-06, 5.65685424949238e-06, 6.727171322029715e-06,
	8e-06, 9.513656920021768e-06, 1.131370849898476e-05, 1.345434264405943e-05,
	1.6e-05, 1.9027313840043532e-05, 2.2627416997969516e-05, 2.6908685288118854e-05,
	3.199999999999999e-05, 3.8054627680087063e-05, 4.525483399593903e-05, 5.381737057623771e-05,
	6.399999999999998e-05, 7.610925536017413e-05, 9.050966799187806e-05, 0.00010763474115247542,
	0.00012799999999999997, 0.00015221851072034825, 0.00018101933598375613, 0.00021526948230495083,
	0.00025599999999999993, 0.0003044370214406964, 0.0003620386719675121, 0.00043053896460990156,
	0.0005119999999999998, 0.0006088740428813928, 0.0007240773439350242, 0.0008610779292198031,
	0.0010239999999999995, 0.0012177480857627856, 0.0014481546878700484, 0.0017221558584396062,
	0.002047999999999999, 0.002435496171525571, 0.0028963093757400967, 0.0034443117168792125,
	0.004095999999999998, 0.004870992343051142, 0.005792618751480193, 0.006888623433758425,
	0.008191999999999996, 0.009741984686102285, 0.011585237502960387, 0.01377724686751685,
	0.016383999999999992, 0.01948396937220457, 0.023170475005920774, 0.0275544937350337,
	0.032767999999999985, 0.03896793874440914, 0.04634095001184155, 0.0551089874700674,
	0.06553599999999997, 0.07793587748881824, 0.09268190002368304, 0.11021797494013473,
	0.13107199999999983, 0.15587175497763647, 0.18536380004736608, 0.22043594988026946,
	0.26214399999999966, 0.31174350995527295, 0.37072760009473216, 0.4408718997605389,
	0.5242879999999993, 0.6234870199105459, 0.7414552001894643, 0.8817437995210778,
	1.0485759999999986, 1.2469740398210918, 1.4829104003789286, 1.7634875990421557,
	2.0971519999999972, 2.4939480796421836, 2.9658208007578573, 3.5269751980843114,
	4.1943039999999945, 4.987896159284367, 5.9316416015157145, 7.053950396168623,
	8.388607999999989, 9.975792318568734, 11.863283203031429, 14.107900792337245,
	16.777215999999978, 19.95158463713747, 23.726566406062858, 28.21580158467449,
	33.554431999999956, 39.90316927427494, 47.453132812125716, 56.43160316934898,
	67.10886399999991, 79.80633854854987, 94.90626562425143, 112.86320633869796,
	134.21772799999982, 159.61267709709975, 189.81253124850286, 225.72641267739593,
	268.43545599999965, 319.2253541941995, 379.62506249700573, 451.45282535479186,
	536.8709119999993, 638.450708388399, 759.2501249940115, 902.9056507095837,
	1073.7418239999986, 1276.901416776798, 1518.500249988023, 1805.8113014191674,
	2147.483647999997, 2553.802833553596, 3037.000499976046, 3611.622602838335,
	4294.967295999994, 5107.605667107185, 6074.000999952084, 7223.2452056766615,
	8589.93459199998, 10215.21133421437, 12148.001999904169, 14446.490411353323,
	17179.86918399996, 20430.42266842874, 24296.003999808338, 28892.980822706646,
	34359.73836799992, 40860.84533685748, 48592.007999616675, 57785.96164541329,
	68719.47673599984, 81721.69067371495, 97184.01599923335, 115571.92329082658,
	137438.95347199967, 163443.3813474299, 194368.0319984667, 231143.84658165317,
	274877.90694399935, 326886.7626948598, 388736.0639969334, 462287.69316330634,
	549755.8138879987, 653773.5253897196, 777472.1279938668, 924575.3863266127,
	1.0995116277759974e+06, 1.3075470507794393e+06, 1.5549442559877336e+06, 1.8491507726532253e+06,
	2.199023255551995e+06, 2.6150941015588786e+06, 3.109888511975467e+06, 3.6983015453064507e+06,
	4.39804651110399e+06, 5.230188203117757e+06, 6.219777023950934e+06, 7.396603090612901e+06,
	8.79609302220798e+06, 1.0460376406235514e+07, 1.2439554047901869e+07, 1.4793206181225803e+07,
	1.759218604441596e+07,
}

// bucketIndex maps a value to its bucket. NaN and negatives land in the
// underflow bucket (the simulators never produce them; the comparison
// that finds underflow catches them too), and everything from the top
// bucket's start up, +Inf included, in the top bucket. It equals the
// Log2 definition above wherever that does not overflow (FuzzBucketIndex)
// without computing a logarithm: v's binary exponent e puts it in
// [2^e, 2^(e+1)), where 2^e lies in bucket 80+4e (1 s is in bucket 80),
// and v then passes at most that octave's four bucket starts.
func bucketIndex(v float64) int {
	if !(v >= histMin) {
		return 0
	}
	i := 80 + 4*(int(math.Float64bits(v)>>52)-1023)
	if i >= numBuckets-1 {
		return numBuckets - 1
	}
	for i < numBuckets-1 && v >= bucketStart[i] {
		i++
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

// occupied counts the buckets that hold an observation.
func occupied(buckets *[numBuckets]uint64) int {
	k := 0
	for _, n := range buckets {
		if n > 0 {
			k++
		}
	}
	return k
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
//
// A registry outlives its run: Reset zeroes every instrument and marks
// every series unresolved, so a sweep reuses one registry per worker
// instead of allocating every histogram's bucket array per run. A
// snapshot lists only the series resolved since the last Reset, exactly
// what a fresh registry given the same calls would list.
type Registry struct {
	mu       sync.Mutex
	counters table[Counter]
	gauges   table[Gauge]
	hists    table[Histogram]
}

// series is one named instrument; live marks it resolved since the last
// Reset. val comes first, so a handle points at the start of its series'
// allocation and is a valid runtime.SetFinalizer target (the pool tests
// of stepsim and machine watch handles get collected).
type series[T any] struct {
	val  T
	name string
	live bool
}

// table is one instrument kind's series: every name ever resolved, and
// the live ones in resolution order.
type table[T any] struct {
	byName map[string]*series[T]
	live   []*series[T]
}

// resolve returns name's instrument, creating it on first use and
// marking it live.
func (t *table[T]) resolve(name string) *T {
	s := t.byName[name]
	if s == nil {
		if t.byName == nil {
			t.byName = make(map[string]*series[T])
		}
		s = &series[T]{name: name}
		t.byName[name] = s
	}
	if !s.live {
		s.live = true
		t.live = append(t.live, s)
	}
	return &s.val
}

// reset zeroes every live instrument with zero and marks it unresolved.
func (t *table[T]) reset(zero func(*T)) {
	for _, s := range t.live {
		zero(&s.val)
		s.live = false
	}
	t.live = t.live[:0]
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters.resolve(name)
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges.resolve(name)
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists.resolve(name)
}

// Reset returns the registry to the state of a fresh one without
// releasing its instruments: every instrument is zeroed and every series
// unresolved, so the next snapshot lists only what is resolved after the
// reset. A handle resolved before the reset must be resolved again
// before it records. No-op on a nil registry.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters.reset(func(c *Counter) { *c = Counter{} })
	r.gauges.reset(func(g *Gauge) { *g = Gauge{} })
	r.hists.reset(func(h *Histogram) {
		if h.count != 0 { // an unobserved histogram is already zero
			*h = Histogram{}
		}
	})
}
