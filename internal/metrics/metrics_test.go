package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	r := New()
	c := r.Counter("x")
	c.Inc()
	c.Add(2.5)
	if got := c.n; got != 3.5 {
		t.Fatalf("total = %g, want 3.5", got)
	}
	if r.Counter("x") != c {
		t.Fatal("same name must return the same handle")
	}
}

func TestGaugeTimeWeightedMean(t *testing.T) {
	r := New()
	g := r.Gauge("depth")
	g.Set(0, 1)  // 1 for 10 s
	g.Set(10, 3) // 3 for 5 s
	g.Set(15, 0)
	s := r.Snapshot(20) // 0 for the last 5 s
	st := s.Gauges["depth"]
	want := (1*10.0 + 3*5 + 0*5) / 20
	if math.Abs(st.Mean()-want) > 1e-12 {
		t.Fatalf("Mean = %g, want %g", st.Mean(), want)
	}
	if st.Min != 0 || st.Max != 3 || st.Last != 0 {
		t.Fatalf("extrema = %+v", st)
	}
}

func TestHistogramBasics(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i)) // 1..1000
	}
	st := r.Snapshot(0).Histograms["lat"]
	if st.Count != 1000 || st.Min != 1 || st.Max != 1000 {
		t.Fatalf("stat = %+v", st)
	}
	if math.Abs(st.Mean()-500.5) > 1e-9 {
		t.Fatalf("Mean = %g", st.Mean())
	}
	// Log buckets are ≈19% wide; allow that plus a little slack.
	checks := []struct{ q, want float64 }{{0.50, 500}, {0.95, 950}, {0.99, 990}}
	for _, c := range checks {
		got := st.Quantile(c.q)
		if got < c.want*0.75 || got > c.want*1.25 {
			t.Errorf("Quantile(%g) = %g, want ≈%g", c.q, got, c.want)
		}
	}
	if st.P50 != st.Quantile(0.5) || st.P99 != st.Quantile(0.99) {
		t.Fatal("serialized percentiles must match Quantile")
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Observe(0)    // underflow bucket
	h.Observe(1e10) // overflow bucket
	if h.count != 2 {
		t.Fatalf("count = %d", h.count)
	}
	if got := bucketIndex(0); got != 0 {
		t.Fatalf("bucketIndex(0) = %d", got)
	}
	if got := bucketIndex(1e10); got != numBuckets-1 {
		t.Fatalf("bucketIndex(1e10) = %d, want %d", got, numBuckets-1)
	}
	if got := bucketIndex(math.NaN()); got != 0 {
		t.Fatalf("bucketIndex(NaN) = %d", got)
	}
	// Past the range, v/histMin overflows to +Inf; such values, and +Inf
	// itself, still land in the top bucket.
	for _, v := range []float64{math.MaxFloat64, math.Inf(1)} {
		if got := bucketIndex(v); got != numBuckets-1 {
			t.Fatalf("bucketIndex(%g) = %d, want %d", v, got, numBuckets-1)
		}
		h.Observe(v)
	}
	if h.count != 4 || h.buckets[numBuckets-1] != 3 {
		t.Fatalf("count = %d, top bucket = %d", h.count, h.buckets[numBuckets-1])
	}
}

// log2Bucket is the bucket layout's definition, which bucketIndex's
// table reproduces: the truncated log2 of v/histMin, clamped, with an
// overflowing v/histMin in the top bucket.
func log2Bucket(v float64) int {
	if !(v >= histMin) {
		return 0
	}
	q := v / histMin
	if math.IsInf(q, 1) {
		return numBuckets - 1
	}
	i := 1 + int(bucketsPerOctave*math.Log2(q))
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// TestBucketStartMatchesLog2 re-derives the committed table: each entry
// is the first float64 the Log2 definition puts in its bucket (its
// predecessor lands one bucket lower), within 20 ulps of the ideal bound
// histMin·2^((k-1)/4). Around every entry, and on log-uniform values
// across the range and past both ends, bucketIndex equals the definition.
func TestBucketStartMatchesLog2(t *testing.T) {
	for k := 1; k < numBuckets; k++ {
		s := bucketStart[k-1]
		if got := log2Bucket(s); got != k {
			t.Fatalf("bucketStart[%d] = %v falls in bucket %d, want %d", k-1, s, got, k)
		}
		if got := log2Bucket(math.Nextafter(s, 0)); got != k-1 {
			t.Fatalf("the float64 below bucketStart[%d] = %v falls in bucket %d, want %d", k-1, s, got, k-1)
		}
		ideal := histMin * math.Exp2(float64(k-1)/bucketsPerOctave)
		if d := int64(math.Float64bits(s)) - int64(math.Float64bits(ideal)); d < -20 || d > 20 {
			t.Fatalf("bucketStart[%d] = %v is %d ulps from %v", k-1, s, d, ideal)
		}
		for d := int64(-2000); d <= 2000; d++ {
			v := math.Float64frombits(uint64(int64(math.Float64bits(s)) + d))
			if got, want := bucketIndex(v), log2Bucket(v); got != want {
				t.Fatalf("bucketIndex(%v) = %d, definition %d", v, got, want)
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		v := math.Exp2(r.Float64()*120 - 40) // 2^-40 … 2^80
		if got, want := bucketIndex(v), log2Bucket(v); got != want {
			t.Fatalf("bucketIndex(%v) = %d, definition %d", v, got, want)
		}
	}
}

// FuzzBucketIndex holds the table kernel to the Log2 definition on any
// float64: where the definition does not overflow they agree, +Inf and
// values too large for it land in the top bucket, NaN and negatives in
// bucket 0. The seed corpus is every table entry and its predecessor.
func FuzzBucketIndex(f *testing.F) {
	for _, s := range bucketStart {
		f.Add(math.Float64bits(s))
		f.Add(math.Float64bits(math.Nextafter(s, 0)))
	}
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, 1e300} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		got := bucketIndex(v)
		if got != log2Bucket(v) {
			t.Fatalf("bucketIndex(%v) = %d, definition %d", v, got, log2Bucket(v))
		}
		switch {
		case math.IsNaN(v) || v < histMin:
			if got != 0 {
				t.Fatalf("bucketIndex(%v) = %d, want the underflow bucket", v, got)
			}
		case v >= bucketStart[numBuckets-2]:
			if got != numBuckets-1 {
				t.Fatalf("bucketIndex(%v) = %d, want the top bucket", v, got)
			}
		}
	})
}

func TestBucketBoundsCoverIndex(t *testing.T) {
	for i := 1; i < numBuckets-1; i++ {
		lo, hi := bucketLo(i), bucketHi(i)
		mid := math.Sqrt(lo * hi)
		if got := bucketIndex(mid); got != i {
			t.Fatalf("bucketIndex(mid of %d) = %d", i, got)
		}
	}
}

// TestNilHandlesAreNoOps is the off-path contract: every handle method on
// a nil receiver does nothing, and a nil registry hands out nil handles.
func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c, g, h := r.Counter("a"), r.Gauge("b"), r.Histogram("c")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil handles")
	}
	c.Add(1)
	c.Inc()
	g.Set(1, 2)
	h.Observe(4)
	if s := r.Snapshot(10); !s.Empty() {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestZeroAllocations proves both sides of the hot-path contract: nil
// handles (metering off) AND live handles (metering on) allocate nothing
// per operation; nor does refilling a frame that once held the same
// series, which is how a metered sweep leaves each run's frame.
func TestZeroAllocations(t *testing.T) {
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	if n := testing.AllocsPerRun(1000, func() {
		nc.Add(1)
		ng.Set(1, 2)
		nh.Observe(3)
	}); n != 0 {
		t.Fatalf("nil handles allocated %.1f per op", n)
	}
	r := New()
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h")
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(1, 2)
		h.Observe(3)
	}); n != 0 {
		t.Fatalf("live handles allocated %.1f per op", n)
	}
	var fr Frame
	r.FrameInto(4, &fr)
	if n := testing.AllocsPerRun(1000, func() {
		r.Reset()
		r.Counter("c").Inc()
		r.Gauge("g").Set(1, 2)
		r.Histogram("h").Observe(3)
		r.FrameInto(4, &fr)
	}); n != 0 {
		t.Fatalf("a refilled frame allocated %.1f per run", n)
	}
}

// TestSnapshotMergeQuick is the property test of the mergeable-snapshot
// contract: recording shards into separate registries and merging their
// snapshots must equal recording everything into one registry. Matches
// the internal/stats testing/quick style.
func TestSnapshotMergeQuick(t *testing.T) {
	f := func(shards [][]float64) bool {
		single := New()
		sh := single.Histogram("h")
		sc := single.Counter("c")
		merged := &Snapshot{}
		for _, shard := range shards {
			r := New()
			h := r.Histogram("h")
			c := r.Counter("c")
			for _, v := range shard {
				// Clamp to finite non-negative values, the instruments'
				// domain (durations, bandwidths, counts).
				if math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				v = math.Abs(v)
				if v > 1e100 {
					continue
				}
				h.Observe(v)
				sh.Observe(v)
				c.Add(1)
				sc.Add(1)
			}
			merged.Merge(r.Snapshot(0))
		}
		want := single.Snapshot(0)
		wh, mh := want.Histograms["h"], merged.Histograms["h"]
		if wh.Count != mh.Count || wh.Min != mh.Min || wh.Max != mh.Max {
			return false
		}
		if len(wh.Buckets) != len(mh.Buckets) {
			return false
		}
		for i := range wh.Buckets {
			if wh.Buckets[i] != mh.Buckets[i] {
				return false
			}
		}
		// Sums accumulate in different orders; quantiles are pure
		// functions of (buckets, min, max, count) so they must be exact.
		if math.Abs(wh.Sum-mh.Sum) > 1e-6*(1+math.Abs(wh.Sum)) {
			return false
		}
		if wh.P50 != mh.P50 || wh.P95 != mh.P95 || wh.P99 != mh.P99 {
			return false
		}
		return want.Counters["c"] == merged.Counters["c"]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGaugeMerge(t *testing.T) {
	a, b := New(), New()
	a.Gauge("g").Set(0, 2)
	a.Gauge("g").Set(10, 2) // mean 2 over 10 s
	b.Gauge("g").Set(0, 4)
	b.Gauge("g").Set(5, 4) // mean 4 over 5 s
	s := a.Snapshot(10)
	s.Merge(b.Snapshot(5))
	g := s.Gauges["g"]
	want := (2*10.0 + 4*5) / 15 // duration-weighted across shards
	if math.Abs(g.Mean()-want) > 1e-12 {
		t.Fatalf("merged Mean = %g, want %g", g.Mean(), want)
	}
	if g.Min != 2 || g.Max != 4 {
		t.Fatalf("merged extrema %+v", g)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("runs").Add(3)
	r.Gauge("depth").Set(0, 1)
	r.Gauge("depth").Set(4, 0)
	for i := 0; i < 100; i++ {
		r.Histogram("lat").Observe(float64(i) * 0.01)
	}
	s := r.Snapshot(10)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["runs"] != 3 {
		t.Fatalf("counter lost: %+v", back.Counters)
	}
	if back.Histograms["lat"].Count != 100 || back.Histograms["lat"].P50 != s.Histograms["lat"].P50 {
		t.Fatalf("histogram lost: %+v", back.Histograms["lat"])
	}
	if back.Gauges["depth"].Seconds != 10 {
		t.Fatalf("gauge span = %g, want 10", back.Gauges["depth"].Seconds)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	col := NewCollector()
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				r := New()
				r.Counter("n").Inc()
				r.Histogram("h").Observe(float64(w + i))
				col.Add(r.Snapshot(0))
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	s := col.Snapshot()
	if s.Counters["n"] != 400 || s.Histograms["h"].Count != 400 {
		t.Fatalf("collector lost updates: %+v", s.Counters)
	}
}

func TestRender(t *testing.T) {
	r := New()
	r.Counter("failures").Add(2)
	r.Gauge("depth").Set(0, 1)
	r.Histogram("episode_seconds").Observe(12.5)
	out := Render(r.Snapshot(100))
	for _, want := range []string{"failures", "depth", "episode_seconds", "p95"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render output missing %q:\n%s", want, out)
		}
	}
	if got := Render(&Snapshot{}); got != "(no metrics recorded)\n" {
		t.Fatalf("empty render = %q", got)
	}
}
