package metrics

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"sort"
	"sync"
)

// GaugeStat is a gauge's snapshot: the time integral of the tracked value
// over the observed span, plus exact extrema. Merging sums integrals and
// spans, so the merged Mean stays the correct time-weighted average
// across runs.
type GaugeStat struct {
	// Integral is ∫value·dt over the observed span, in value·seconds.
	Integral float64 `json:"integral"`
	// Seconds is the observed span (time between first and last Set).
	Seconds float64 `json:"seconds"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	// Last is the value at snapshot time. After a merge it is the last
	// merged shard's value (shards merge in seed order, so it remains
	// deterministic, but only per-run snapshots give it physical meaning).
	Last float64 `json:"last"`
}

// Mean returns the time-weighted mean (Last when the span is empty).
func (g GaugeStat) Mean() float64 {
	if g.Seconds <= 0 {
		return g.Last
	}
	return g.Integral / g.Seconds
}

// Bucket is one non-empty histogram bucket, identified by its index in
// the package-wide layout.
type Bucket struct {
	Index int    `json:"i"`
	Count uint64 `json:"n"`
}

// HistStat is a histogram's snapshot: exact count/sum/min/max, the
// non-empty buckets (sparse, ascending index), and quantiles estimated
// from them. P50/P95/P99 are derived fields recomputed on merge; they are
// serialized so readers of a snapshot file (-metrics-out) need not know
// the bucket layout.
type HistStat struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	P50     float64  `json:"p50"`
	P95     float64  `json:"p95"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the exact arithmetic mean of the observations.
func (h HistStat) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) from the buckets: the
// geometric midpoint of the bucket holding the target rank, clamped to
// the exact observed [Min, Max].
func (h HistStat) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.Count)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for _, b := range h.Buckets {
		cum += b.Count
		if cum >= target {
			lo, hi := bucketLo(b.Index), bucketHi(b.Index)
			var est float64
			switch {
			case b.Index == 0:
				est = h.Min
			case math.IsInf(hi, 1):
				est = h.Max
			default:
				est = math.Sqrt(lo * hi)
			}
			return math.Min(math.Max(est, h.Min), h.Max)
		}
	}
	return h.Max
}

// refreshQuantiles recomputes the derived P50/P95/P99 fields.
func (h *HistStat) refreshQuantiles() {
	h.P50 = h.Quantile(0.50)
	h.P95 = h.Quantile(0.95)
	h.P99 = h.Quantile(0.99)
}

// absorb folds o's count, sum and extrema into h and reports whether o
// holds any observation; the caller adds the buckets.
func (h *HistStat) absorb(o HistStat) bool {
	if o.Count == 0 {
		return false
	}
	if h.Count == 0 {
		h.Min, h.Max = o.Min, o.Max
	} else {
		h.Min = math.Min(h.Min, o.Min)
		h.Max = math.Max(h.Max, o.Max)
	}
	h.Count += o.Count
	h.Sum += o.Sum
	return true
}

// merge folds o into h bucket-for-bucket. Both bucket lists are sparse
// and ascending, so one two-pointer pass merges them into a new slice:
// h never shares a backing array with o, nor with any snapshot that
// shared h's old list.
func (h *HistStat) merge(o HistStat) {
	if !h.absorb(o) {
		return
	}
	a, b := h.Buckets, o.Buckets
	merged := make([]Bucket, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].Index < b[0].Index:
			merged, a = append(merged, a[0]), a[1:]
		case a[0].Index > b[0].Index:
			merged, b = append(merged, b[0]), b[1:]
		default:
			merged = append(merged, Bucket{Index: a[0].Index, Count: a[0].Count + b[0].Count})
			a, b = a[1:], b[1:]
		}
	}
	h.Buckets = append(append(merged, a...), b...)
	h.refreshQuantiles()
}

// Snapshot is a registry's state frozen at a point in simulation time:
// plain data, JSON-serializable, and mergeable across runs (all
// histograms share the package bucket layout, so merging shard snapshots
// is exact — a property test guards this).
type Snapshot struct {
	Counters   map[string]float64   `json:"counters,omitempty"`
	Gauges     map[string]GaugeStat `json:"gauges,omitempty"`
	Histograms map[string]HistStat  `json:"histograms,omitempty"`
}

// Snapshot freezes the registry at simulation time now: gauge integrals
// are extended to now (a gauge last set at t < now is worth its last
// value for the remaining now−t). The registry remains usable. Returns
// an empty snapshot for a nil registry.
func (r *Registry) Snapshot(now float64) *Snapshot {
	var fr Frame
	r.FrameInto(now, &fr)
	var f Fold
	f.Add(&fr)
	return f.Snapshot()
}

// Merge folds o into s. Metrics present in only one side are kept as-is;
// shared names are combined (counters add, gauge integrals and spans
// add, histogram buckets add). Safe with a nil or empty o.
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	for name, v := range o.Counters {
		s.addCounter(name, v)
	}
	for name, og := range o.Gauges {
		s.addGauge(name, og)
	}
	for name, oh := range o.Histograms {
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistStat, len(o.Histograms))
		}
		h := s.Histograms[name]
		h.merge(oh)
		s.Histograms[name] = h
	}
}

// addCounter adds v to the named counter.
func (s *Snapshot) addCounter(name string, v float64) {
	if s.Counters == nil {
		s.Counters = make(map[string]float64)
	}
	s.Counters[name] += v
}

// addGauge folds og into the named gauge: integrals and spans add,
// extrema widen, and the last value is og's.
func (s *Snapshot) addGauge(name string, og GaugeStat) {
	if s.Gauges == nil {
		s.Gauges = make(map[string]GaugeStat)
	}
	g, ok := s.Gauges[name]
	if !ok {
		s.Gauges[name] = og
		return
	}
	g.Integral += og.Integral
	g.Seconds += og.Seconds
	g.Min = math.Min(g.Min, og.Min)
	g.Max = math.Max(g.Max, og.Max)
	g.Last = og.Last
	s.Gauges[name] = g
}

// Frame is one run's registry state, frozen as Snapshot freezes it but
// without maps or derived quantiles: the per-run half of a Fold. Each
// live series keeps its raw state — a histogram its count, sum, extrema
// and occupied buckets, all histograms' buckets in one array. The zero
// Frame is a run that recorded nothing. Registry.FrameInto refills a
// frame in place, so a sweep recycles frames once they are folded.
type Frame struct {
	counters []namedCounter
	gauges   []namedGauge
	hists    []namedHist
	buckets  []Bucket
}

type namedCounter struct {
	name string
	n    float64
}

type namedGauge struct {
	name string
	st   GaugeStat
}

// namedHist is one histogram of a frame: st holds its count, sum and
// extrema, and its occupied buckets end at buckets[end] (they start where
// the previous histogram's end).
type namedHist struct {
	name string
	st   HistStat
	end  int
}

// FrameInto freezes the registry's live series at simulation time now
// into f, as Snapshot does, in place of what f held: f keeps its storage,
// so filling a frame that once held a run as large allocates nothing.
// Afterwards f shares nothing with the registry, which may be Reset and
// reused at once. A nil registry leaves f a frame that records nothing.
func (r *Registry) FrameInto(now float64, f *Frame) {
	f.counters, f.gauges, f.hists, f.buckets = f.counters[:0], f.gauges[:0], f.hists[:0], f.buckets[:0]
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// A new frame is sized once, from the live series and their occupied
	// buckets; a refilled one keeps its storage and skips the bucket count.
	f.counters = reserve(f.counters, len(r.counters.live))
	f.gauges = reserve(f.gauges, len(r.gauges.live))
	f.hists = reserve(f.hists, len(r.hists.live))
	if cap(f.buckets) == 0 {
		k := 0
		for _, s := range r.hists.live {
			if s.val.count > 0 {
				k += occupied(&s.val.buckets)
			}
		}
		f.buckets = make([]Bucket, 0, k)
	}
	for _, s := range r.counters.live {
		f.counters = append(f.counters, namedCounter{s.name, s.val.n})
	}
	for _, s := range r.gauges.live {
		g := &s.val
		st := GaugeStat{Integral: g.integral, Seconds: g.dur, Min: g.min, Max: g.max, Last: g.last}
		if g.set && now > g.lastT {
			st.Integral += (now - g.lastT) * g.last
			st.Seconds += now - g.lastT
		}
		f.gauges = append(f.gauges, namedGauge{s.name, st})
	}
	for _, s := range r.hists.live {
		h := &s.val
		if h.count > 0 {
			for j, n := range h.buckets {
				if n > 0 {
					f.buckets = append(f.buckets, Bucket{Index: j, Count: n})
				}
			}
		}
		f.hists = append(f.hists, namedHist{s.name, HistStat{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}, len(f.buckets)})
	}
}

// reserve returns the empty list s with room for n elements, in a new
// array only when s's has too little.
func reserve[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, 0, n)
	}
	return s
}

// Fold merges run frames, in the order added, into one snapshot: the
// same snapshot, bit for bit, as Merge-ing the runs' Snapshots in that
// order, without building them. Histograms fold into dense bucket
// arrays and get their quantiles once, in Snapshot. The zero Fold is
// empty and ready to use; it is not safe for concurrent use.
type Fold struct {
	acc   Snapshot // counters and gauges
	hists map[string]*histFold
}

// histFold is one histogram's running fold: count, sum and extrema, and
// the dense bucket counts.
type histFold struct {
	st      HistStat
	buckets [numBuckets]uint64
}

// Add folds one run's frame. The fold keeps nothing of fr, which may be
// refilled at once.
func (f *Fold) Add(fr *Frame) {
	for _, c := range fr.counters {
		f.acc.addCounter(c.name, c.n)
	}
	for _, g := range fr.gauges {
		f.acc.addGauge(g.name, g.st)
	}
	// The first frame's histograms fold into one array; a name that a
	// later frame adds gets its own.
	var first []histFold
	if f.hists == nil && len(fr.hists) > 0 {
		f.hists = make(map[string]*histFold, len(fr.hists))
		first = make([]histFold, len(fr.hists))
	}
	start := 0
	for i, h := range fr.hists {
		hf := f.hists[h.name]
		if hf == nil {
			if first != nil {
				hf = &first[i]
			} else {
				hf = new(histFold)
			}
			f.hists[h.name] = hf
		}
		if hf.st.absorb(h.st) {
			for _, b := range fr.buckets[start:h.end] {
				hf.buckets[b.Index] += b.Count
			}
		}
		start = h.end
	}
}

// Snapshot returns the fold so far as a snapshot that shares nothing
// with the fold, quantiles included.
func (f *Fold) Snapshot() *Snapshot {
	s := &Snapshot{Counters: maps.Clone(f.acc.Counters), Gauges: maps.Clone(f.acc.Gauges)}
	if len(f.hists) > 0 {
		s.Histograms = make(map[string]HistStat, len(f.hists))
		for name, hf := range f.hists {
			st := hf.st
			if k := occupied(&hf.buckets); k > 0 {
				st.Buckets = make([]Bucket, 0, k)
				for i, n := range hf.buckets {
					if n > 0 {
						st.Buckets = append(st.Buckets, Bucket{Index: i, Count: n})
					}
				}
			}
			st.refreshQuantiles()
			s.Histograms[name] = st
		}
	}
	return s
}

// Diff compares s with o bit for bit — floats by math.Float64bits — and
// describes the first differing series in sorted name order, a series
// only one side holds included; it returns "" when the two match. A nil
// snapshot equals an empty one. Each description reads
// `<kind> "<name>"[ <field>]: <s's value> vs <o's value>`. No run
// compares snapshots: it is the oracle of the metering audits, which
// require one model's series to match bit for bit across tiers and
// paths (TestCrossValidationStepMeteredParity, TestRunAheadEquivalence,
// TestRunConfigMetersIntoCollector).
func (s *Snapshot) Diff(o *Snapshot) string {
	if s == nil {
		s = &Snapshot{}
	}
	if o == nil {
		o = &Snapshot{}
	}
	for _, name := range seriesNames(s, o) {
		if d := diffSeries("counter", name, s.Counters, o.Counters, diffCounter); d != "" {
			return d
		}
		if d := diffSeries("gauge", name, s.Gauges, o.Gauges, diffGauge); d != "" {
			return d
		}
		if d := diffSeries("histogram", name, s.Histograms, o.Histograms, diffHist); d != "" {
			return d
		}
	}
	return ""
}

// seriesNames lists every series name either snapshot holds, sorted.
func seriesNames(s, o *Snapshot) []string {
	seen := map[string]bool{}
	for _, snap := range []*Snapshot{s, o} {
		for name := range snap.Counters {
			seen[name] = true
		}
		for name := range snap.Gauges {
			seen[name] = true
		}
		for name := range snap.Histograms {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// diffSeries compares one named series of one kind across two snapshots'
// maps, reporting a side that lacks it as "missing".
func diffSeries[V any](kind, name string, a, b map[string]V, diff func(a, b V) string) string {
	va, inA := a[name]
	vb, inB := b[name]
	switch {
	case !inA && !inB:
		return ""
	case !inB:
		return fmt.Sprintf("%s %q: present vs missing", kind, name)
	case !inA:
		return fmt.Sprintf("%s %q: missing vs present", kind, name)
	}
	if d := diff(va, vb); d != "" {
		return fmt.Sprintf("%s %q%s", kind, name, d)
	}
	return ""
}

// diffFloats names the first field whose bits differ, or returns "".
func diffFloats(fields []string, a, b []float64) string {
	for i, f := range fields {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Sprintf(" %s: %v vs %v", f, a[i], b[i])
		}
	}
	return ""
}

func diffCounter(a, b float64) string {
	if math.Float64bits(a) != math.Float64bits(b) {
		return fmt.Sprintf(": %v vs %v", a, b)
	}
	return ""
}

func diffGauge(a, b GaugeStat) string {
	return diffFloats([]string{"integral", "seconds", "min", "max", "last"},
		[]float64{a.Integral, a.Seconds, a.Min, a.Max, a.Last},
		[]float64{b.Integral, b.Seconds, b.Min, b.Max, b.Last})
}

func diffHist(a, b HistStat) string {
	if a.Count != b.Count {
		return fmt.Sprintf(" count: %d vs %d", a.Count, b.Count)
	}
	if d := diffFloats([]string{"sum", "min", "max", "p50", "p95", "p99"},
		[]float64{a.Sum, a.Min, a.Max, a.P50, a.P95, a.P99},
		[]float64{b.Sum, b.Min, b.Max, b.P50, b.P95, b.P99}); d != "" {
		return d
	}
	for i := 0; i < max(len(a.Buckets), len(b.Buckets)); i++ {
		if i >= len(a.Buckets) || i >= len(b.Buckets) || a.Buckets[i] != b.Buckets[i] {
			return fmt.Sprintf(" buckets[%d]: %s vs %s", i, bucketAt(a.Buckets, i), bucketAt(b.Buckets, i))
		}
	}
	return ""
}

// bucketAt renders buckets[i], or "none" past the end.
func bucketAt(buckets []Bucket, i int) string {
	if i >= len(buckets) {
		return "none"
	}
	return fmt.Sprintf("{i=%d n=%d}", buckets[i].Index, buckets[i].Count)
}

// Empty reports whether the snapshot holds no metrics at all.
func (s *Snapshot) Empty() bool {
	return s == nil || (len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0)
}

// WriteJSON writes the snapshot to path as indented JSON (MarshalJSON's
// encoding).
func (s *Snapshot) WriteJSON(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Collector accumulates snapshots from many runs or configurations into
// one merged snapshot. Unlike Registry it is safe for concurrent use:
// merging happens off the simulation hot path, where a mutex is cheap.
type Collector struct {
	mu   sync.Mutex
	snap Snapshot
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add merges one snapshot into the collector. No-op on a nil collector.
func (c *Collector) Add(s *Snapshot) {
	if c == nil || s == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snap.Merge(s)
}

// Snapshot returns a copy of the merged state collected so far.
func (c *Collector) Snapshot() *Snapshot {
	if c == nil {
		return &Snapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := &Snapshot{}
	out.Merge(&c.snap)
	return out
}

// MarshalJSON encodes the snapshot through its JSON mirror: encoding/json's
// bytes for every finite value, and the string "+Inf", "-Inf" or "NaN"
// for a non-finite float, which encoding/json refuses (a histogram that
// observed +Inf carries it in its sum, extremes and quantiles).
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	w := snapshotJSON{}
	if len(s.Counters) > 0 {
		w.Counters = make(map[string]jsonFloat, len(s.Counters))
		for name, v := range s.Counters {
			w.Counters[name] = jsonFloat(v)
		}
	}
	if len(s.Gauges) > 0 {
		w.Gauges = make(map[string]gaugeJSON, len(s.Gauges))
		for name, g := range s.Gauges {
			w.Gauges[name] = gaugeJSON{jsonFloat(g.Integral), jsonFloat(g.Seconds), jsonFloat(g.Min), jsonFloat(g.Max), jsonFloat(g.Last)}
		}
	}
	if len(s.Histograms) > 0 {
		w.Histograms = make(map[string]histJSON, len(s.Histograms))
		for name, h := range s.Histograms {
			w.Histograms[name] = histJSON{h.Count, jsonFloat(h.Sum), jsonFloat(h.Min), jsonFloat(h.Max),
				jsonFloat(h.P50), jsonFloat(h.P95), jsonFloat(h.P99), h.Buckets}
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes what MarshalJSON encodes, non-finite strings
// included, restoring each float bit for bit.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var w snapshotJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*s = Snapshot{}
	if w.Counters != nil {
		s.Counters = make(map[string]float64, len(w.Counters))
		for name, v := range w.Counters {
			s.Counters[name] = float64(v)
		}
	}
	if w.Gauges != nil {
		s.Gauges = make(map[string]GaugeStat, len(w.Gauges))
		for name, g := range w.Gauges {
			s.Gauges[name] = GaugeStat{float64(g.Integral), float64(g.Seconds), float64(g.Min), float64(g.Max), float64(g.Last)}
		}
	}
	if w.Histograms != nil {
		s.Histograms = make(map[string]HistStat, len(w.Histograms))
		for name, h := range w.Histograms {
			s.Histograms[name] = HistStat{h.Count, float64(h.Sum), float64(h.Min), float64(h.Max),
				float64(h.P50), float64(h.P95), float64(h.P99), h.Buckets}
		}
	}
	return nil
}

// snapshotJSON, gaugeJSON and histJSON mirror Snapshot, GaugeStat and
// HistStat field for field and tag for tag, with jsonFloat floats.
type snapshotJSON struct {
	Counters   map[string]jsonFloat `json:"counters,omitempty"`
	Gauges     map[string]gaugeJSON `json:"gauges,omitempty"`
	Histograms map[string]histJSON  `json:"histograms,omitempty"`
}

type gaugeJSON struct {
	Integral jsonFloat `json:"integral"`
	Seconds  jsonFloat `json:"seconds"`
	Min      jsonFloat `json:"min"`
	Max      jsonFloat `json:"max"`
	Last     jsonFloat `json:"last"`
}

type histJSON struct {
	Count   uint64    `json:"count"`
	Sum     jsonFloat `json:"sum"`
	Min     jsonFloat `json:"min"`
	Max     jsonFloat `json:"max"`
	P50     jsonFloat `json:"p50"`
	P95     jsonFloat `json:"p95"`
	P99     jsonFloat `json:"p99"`
	Buckets []Bucket  `json:"buckets,omitempty"`
}

// jsonFloat is a float64 whose JSON form is encoding/json's number for a
// finite value and the string "+Inf", "-Inf" or "NaN" otherwise.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	switch v := float64(f); {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	default:
		return json.Marshal(v)
	}
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *jsonFloat) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"NaN"`:
		*f = jsonFloat(math.NaN())
	case `"+Inf"`:
		*f = jsonFloat(math.Inf(1))
	case `"-Inf"`:
		*f = jsonFloat(math.Inf(-1))
	default:
		var v float64
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		*f = jsonFloat(v)
	}
	return nil
}
