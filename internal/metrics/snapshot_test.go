package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// mapMerge is a map-and-sort histogram merge, the oracle of the fold's
// dense one.
func mapMerge(h *HistStat, o HistStat) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 {
		h.Min, h.Max = o.Min, o.Max
	} else {
		h.Min = math.Min(h.Min, o.Min)
		h.Max = math.Max(h.Max, o.Max)
	}
	h.Count += o.Count
	h.Sum += o.Sum
	merged := make(map[int]uint64, len(h.Buckets)+len(o.Buckets))
	for _, b := range h.Buckets {
		merged[b.Index] += b.Count
	}
	for _, b := range o.Buckets {
		merged[b.Index] += b.Count
	}
	h.Buckets = h.Buckets[:0]
	for i, n := range merged {
		h.Buckets = append(h.Buckets, Bucket{Index: i, Count: n})
	}
	sort.Slice(h.Buckets, func(i, j int) bool { return h.Buckets[i].Index < h.Buckets[j].Index })
	h.refreshQuantiles()
}

// oracleMerge folds o into want series by series, written out plainly:
// counters add, gauge integrals and spans add while extrema widen and
// the last value is o's, and histograms merge through mapMerge.
func oracleMerge(want, o *Snapshot) {
	for name, v := range o.Counters {
		if want.Counters == nil {
			want.Counters = map[string]float64{}
		}
		want.Counters[name] += v
	}
	for name, og := range o.Gauges {
		if want.Gauges == nil {
			want.Gauges = map[string]GaugeStat{}
		}
		g, ok := want.Gauges[name]
		if ok {
			og = GaugeStat{Integral: g.Integral + og.Integral, Seconds: g.Seconds + og.Seconds,
				Min: math.Min(g.Min, og.Min), Max: math.Max(g.Max, og.Max), Last: og.Last}
		}
		want.Gauges[name] = og
	}
	for name, oh := range o.Histograms {
		if want.Histograms == nil {
			want.Histograms = map[string]HistStat{}
		}
		h := want.Histograms[name]
		mapMerge(&h, oh)
		want.Histograms[name] = h
	}
}

// shardSnapshot records one random shard into a fresh registry: two
// histograms every shard shares, one only this shard has, one resolved
// but observed zero times, and one that also sees +Inf and NaN; a shared
// and a shard-only counter; a gauge with a span and one set at the
// snapshot time (a zero span).
func shardSnapshot(i int, xs []uint16) *Snapshot {
	r := New()
	r.Histogram("h.zero")
	own := fmt.Sprint("h.shard", i%4)
	for _, x := range xs {
		// Spread observations over 2^-25 … 2^39, past both ends of the
		// bucket layout, with some exact zeros.
		v := math.Exp2(float64(x%512)/8 - 25)
		if x%97 == 0 {
			v = 0
		}
		r.Histogram([]string{"h.a", "h.b", own}[x%3]).Observe(v)
		switch {
		case x%61 == 0:
			v = math.Inf(1)
		case x%67 == 0:
			v = math.NaN()
		}
		r.Histogram("h.nonfinite").Observe(v)
		r.Counter("c.shared").Inc()
		r.Counter(fmt.Sprint("c.shard", i%3)).Add(v)
		r.Gauge("g.span").Set(float64(x%7), float64(x))
	}
	now := float64(len(xs))
	r.Gauge("g.zero").Set(now, float64(i))
	return r.Snapshot(now)
}

// TestHistMergeMatchesMapOracle folds random shards of several series
// through Collector.Add and through Snapshot.Merge, and requires both to
// equal the map oracle bit for bit after every step, the derived
// quantiles and the series sets included.
func TestHistMergeMatchesMapOracle(t *testing.T) {
	f := func(shards [][]uint16) bool {
		col := NewCollector()
		merged, want := &Snapshot{}, &Snapshot{}
		for i, xs := range shards {
			o := shardSnapshot(i, xs)
			col.Add(o)
			merged.Merge(o)
			oracleMerge(want, o)
			if d := col.Snapshot().Diff(want); d != "" {
				t.Logf("shard %d: collector vs oracle: %s", i, d)
				return false
			}
			if d := merged.Diff(want); d != "" {
				t.Logf("shard %d: Merge vs oracle: %s", i, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCollectorSnapshotIsACopy: the collector's snapshots share no
// bucket storage with it, in either direction — neither mutating a
// snapshot it returned nor one it was given changes the next Snapshot.
func TestCollectorSnapshotIsACopy(t *testing.T) {
	shard := func(vs ...float64) *Snapshot {
		r := New()
		for _, v := range vs {
			r.Histogram("h").Observe(v)
		}
		return r.Snapshot(0)
	}
	col := NewCollector()
	in := shard(0.5, 2, 2)
	col.Add(in)
	col.Add(shard(2, 8))
	out := col.Snapshot()
	want := col.Snapshot()

	out.Histograms["h"].Buckets[0].Count = 999
	in.Histograms["h"].Buckets[0].Count = 999
	if d := col.Snapshot().Diff(want); d != "" {
		t.Fatalf("mutating a snapshot changed the collector: %s", d)
	}
	// A further Add folds into the collector's own storage only, whether
	// it brings a new bucket or adds to one the collector holds.
	kept := col.Snapshot()
	col.Add(shard(32))
	col.Add(shard(2, 8))
	if d := kept.Diff(want); d != "" {
		t.Fatalf("Add changed a returned snapshot: %s", d)
	}
}

// TestCollectorAddAllocs: adding a snapshot whose series the collector
// already holds folds it in place and allocates nothing; the collector
// ends where Snapshot.Merge of the same snapshots does, and the added
// snapshot and a Snapshot copy taken earlier stay as they were.
func TestCollectorAddAllocs(t *testing.T) {
	r := New()
	for _, v := range []float64{0.5, 2, 2, 8, 300} {
		r.Histogram("h").Observe(v)
	}
	r.Histogram("one").Observe(4)
	r.Counter("c").Add(3)
	r.Gauge("g").Set(1, 4)
	s := r.Snapshot(10)
	orig := r.Snapshot(10)
	col := NewCollector()
	col.Add(s)
	first := col.Snapshot()
	const adds = 50
	// AllocsPerRun calls once more to warm up: adds+1 Adds in all.
	if n := testing.AllocsPerRun(adds, func() { col.Add(s) }); n != 0 {
		t.Fatalf("an Add of buckets the collector holds allocated %g times, want 0", n)
	}
	want := &Snapshot{}
	for i := 0; i < adds+2; i++ {
		want.Merge(s)
	}
	if d := col.Snapshot().Diff(want); d != "" {
		t.Fatalf("in-place Adds differ from Merge: %s", d)
	}
	if d := s.Diff(orig); d != "" {
		t.Fatalf("Add changed the snapshot it was given: %s", d)
	}
	once := &Snapshot{}
	once.Merge(orig)
	if d := first.Diff(once); d != "" {
		t.Fatalf("Add changed an earlier Snapshot copy: %s", d)
	}
}

// TestSnapshotDiff covers each kind of difference Diff reports, and that
// the first differing series in name order wins.
func TestSnapshotDiff(t *testing.T) {
	hist := func(buckets ...Bucket) HistStat {
		return HistStat{Count: 3, Sum: 6, Min: 1, Max: 3, P50: 2, P95: 3, P99: 3, Buckets: buckets}
	}
	base := func() *Snapshot {
		return &Snapshot{
			Counters:   map[string]float64{"c": 2},
			Gauges:     map[string]GaugeStat{"g": {Integral: 10, Seconds: 5, Min: 1, Max: 3, Last: 2}},
			Histograms: map[string]HistStat{"h": hist(Bucket{3, 1}, Bucket{7, 2})},
		}
	}
	cases := []struct {
		name   string
		change func(s *Snapshot)
		want   string // "" for a match
	}{
		{"identical", func(*Snapshot) {}, ""},
		{"counter", func(s *Snapshot) { s.Counters["c"] = 3 }, `counter "c": 2 vs 3`},
		{"gauge field", func(s *Snapshot) {
			g := s.Gauges["g"]
			g.Max = math.Nextafter(3, 4)
			s.Gauges["g"] = g
		}, `gauge "g" max: 3 vs 3.0000000000000004`},
		{"histogram bucket", func(s *Snapshot) { s.Histograms["h"] = hist(Bucket{3, 1}, Bucket{8, 2}) },
			`histogram "h" buckets[1]: {i=7 n=2} vs {i=8 n=2}`},
		{"histogram extra bucket", func(s *Snapshot) { s.Histograms["h"] = hist(Bucket{3, 1}, Bucket{7, 2}, Bucket{9, 0}) },
			`histogram "h" buckets[2]: none vs {i=9 n=0}`},
		{"missing series", func(s *Snapshot) { delete(s.Gauges, "g") }, `gauge "g": present vs missing`},
		{"extra series", func(s *Snapshot) { s.Counters["a"] = 1 }, `counter "a": missing vs present`},
		{"first in name order", func(s *Snapshot) {
			s.Counters["c"] = 5
			s.Histograms["b"] = hist()
		}, `histogram "b": missing vs present`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			other := base()
			tc.change(other)
			if got := base().Diff(other); got != tc.want {
				t.Fatalf("Diff = %q, want %q", got, tc.want)
			}
			if back := other.Diff(base()); (back == "") != (tc.want == "") {
				t.Fatalf("Diff is not symmetric in detecting a change: %q", back)
			}
		})
	}
	zero := &Snapshot{Counters: map[string]float64{"z": 0}}
	negZero := &Snapshot{Counters: map[string]float64{"z": math.Copysign(0, -1)}}
	if d := zero.Diff(negZero); d != `counter "z": 0 vs -0` {
		t.Fatalf("0 vs -0: %q", d)
	}
	if d := (*Snapshot)(nil).Diff(&Snapshot{Counters: map[string]float64{}}); d != "" {
		t.Fatalf("nil vs empty: %q", d)
	}
	if d := (*Snapshot)(nil).Diff(base()); !strings.HasPrefix(d, `counter "c": missing`) {
		t.Fatalf("nil vs populated: %q", d)
	}
}

// record applies one random operation, decoded from w, to r: resolve a
// series of one kind, or record into it. Gauge times are the step
// number, so they never go backwards.
func record(r *Registry, w uint32, step int) {
	name := []string{"a", "b", "c", "d", "e"}[w%5]
	v := float64(w>>12) * 0.37
	if w>>11&1 == 1 {
		v = math.Exp2(float64(w>>12%96) - 40) // across the bucket range
	}
	switch w >> 3 % 8 {
	case 0:
		r.Counter(name)
	case 1:
		r.Counter(name).Inc()
	case 2:
		r.Counter(name).Add(v)
	case 3:
		r.Gauge(name)
	case 4:
		r.Gauge(name).Set(float64(step), v)
	case 5:
		r.Histogram(name)
	default:
		r.Histogram(name).Observe(v)
	}
}

// TestResetMatchesFreshQuick: a registry reused across Resets behaves as
// a fresh one. Random programs of resolves, records and Resets run
// against one registry; after every step its snapshot must equal, bit
// for bit and series set included, that of a fresh registry given only
// the calls since the last Reset. Right after a Reset it holds no series
// at all: one resolved only before the reset is gone.
func TestResetMatchesFreshQuick(t *testing.T) {
	f := func(prog []uint32) bool {
		reused, fresh := New(), New()
		for step, w := range prog {
			if w%7 == 0 {
				reused.Reset()
				fresh = New()
				if s := reused.Snapshot(float64(step)); !s.Empty() {
					t.Logf("step %d: a reset registry still lists %+v", step, s)
					return false
				}
				continue
			}
			record(reused, w, step)
			record(fresh, w, step)
			if d := reused.Snapshot(float64(step)).Diff(fresh.Snapshot(float64(step))); d != "" {
				t.Logf("step %d: reused vs fresh: %s", step, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFoldMatchesMerge: folding run frames equals Merge-ing the runs'
// snapshots in the same order, bit for bit — quantiles, which the fold
// computes once at the end, included. Every run refills one frame, as a
// sweep recycles them, so a refill must drop all the frame held; the
// zero frame and a frame filled from a nil registry fold as runs that
// recorded nothing.
func TestFoldMatchesMerge(t *testing.T) {
	f := func(runs [][]uint32) bool {
		var fold Fold
		var fr Frame
		var none *Registry
		merged := &Snapshot{}
		reg := New()
		for i, prog := range runs {
			for step, w := range prog {
				record(reg, w, step)
			}
			now := float64(len(prog) + i)
			reg.FrameInto(now, &fr)
			fold.Add(&fr)
			fold.Add(&Frame{})
			if i%2 == 1 {
				none.FrameInto(now, &fr)
				fold.Add(&fr)
			}
			merged.Merge(reg.Snapshot(now))
			reg.Reset()
		}
		if d := fold.Snapshot().Diff(merged); d != "" {
			t.Logf("fold vs merge: %s", d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFoldSnapshotIsACopy: a snapshot taken from a fold shares no
// storage with it, so later Adds leave it unchanged.
func TestFoldSnapshotIsACopy(t *testing.T) {
	reg := New()
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(0, 1)
	reg.Histogram("h").Observe(2)
	var fold Fold
	var fr Frame
	reg.FrameInto(1, &fr)
	fold.Add(&fr)
	got := fold.Snapshot()
	want := fold.Snapshot()
	fold.Add(&fr)
	if d := got.Diff(want); d != "" {
		t.Fatalf("Add changed an earlier snapshot: %s", d)
	}
}

// spanBuckets returns a registry with three counters, three gauges and
// four histograms, each histogram holding one value in each of the
// first k buckets from 1 ms up.
func spanBuckets(k int) *Registry {
	r := New()
	for i := range 3 {
		r.Counter(fmt.Sprint("c", i)).Add(float64(i))
		r.Gauge(fmt.Sprint("g", i)).Set(0, float64(i))
	}
	for i := range 4 {
		h := r.Histogram(fmt.Sprint("h", i))
		for j := range k {
			h.Observe(1e-3 * math.Exp2((float64(j)+0.5)/bucketsPerOctave))
		}
	}
	return r
}

// TestFrameIntoNewFrameAllocs: filling a new frame sizes each of its
// four lists once, however many buckets its histograms occupy, and
// refilling it allocates nothing.
func TestFrameIntoNewFrameAllocs(t *testing.T) {
	for _, k := range []int{3, 60} {
		r := spanBuckets(k)
		if n := testing.AllocsPerRun(100, func() {
			var fr Frame
			r.FrameInto(1, &fr)
			if len(fr.buckets) != 4*k {
				t.Fatalf("%d buckets framed, want %d", len(fr.buckets), 4*k)
			}
		}); n != 4 {
			t.Fatalf("a new frame of %d buckets a histogram allocated %.0f times, want 4", k, n)
		}
	}
}

// TestFoldSnapshotAllocs: a fold's snapshot makes each histogram's
// bucket list once, so it allocates as often whether its histograms
// occupy 3 buckets or 60.
func TestFoldSnapshotAllocs(t *testing.T) {
	allocs := func(k int) float64 {
		var fr Frame
		spanBuckets(k).FrameInto(1, &fr)
		var fold Fold
		fold.Add(&fr)
		return testing.AllocsPerRun(100, func() {
			if s := fold.Snapshot(); len(s.Histograms["h0"].Buckets) != k {
				t.Fatalf("%d buckets in the snapshot, want %d", len(s.Histograms["h0"].Buckets), k)
			}
		})
	}
	if few, many := allocs(3), allocs(60); few != many {
		t.Fatalf("a fold snapshot allocated %.0f times at 3 buckets a histogram and %.0f at 60", few, many)
	}
}

// nonFiniteSnapshot records +Inf, -Inf and NaN into a histogram and a
// gauge each, next to a finite series.
func nonFiniteSnapshot() *Snapshot {
	r := New()
	for name, v := range map[string]float64{"inf": math.Inf(1), "neginf": math.Inf(-1), "nan": math.NaN()} {
		r.Histogram("h." + name).Observe(v)
		r.Histogram("h." + name).Observe(2)
		g := r.Gauge("g." + name)
		g.Set(1, 3)
		g.Set(2, v)
		r.Counter("c." + name).Add(v)
	}
	r.Histogram("h.finite").Observe(0.25)
	return r.Snapshot(4)
}

// sameSnapshotBits reports the first float of got that differs from
// want's bit for bit, or "".
func sameSnapshotBits(want, got *Snapshot) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, v := range want.Counters {
		if !same(v, got.Counters[name]) {
			return fmt.Sprintf("counter %s: %v, want %v", name, got.Counters[name], v)
		}
	}
	for name, w := range want.Gauges {
		g := got.Gauges[name]
		for i, pair := range [][2]float64{{w.Integral, g.Integral}, {w.Seconds, g.Seconds}, {w.Min, g.Min}, {w.Max, g.Max}, {w.Last, g.Last}} {
			if !same(pair[0], pair[1]) {
				return fmt.Sprintf("gauge %s field %d: %v, want %v", name, i, pair[1], pair[0])
			}
		}
	}
	for name, w := range want.Histograms {
		h := got.Histograms[name]
		for i, pair := range [][2]float64{{w.Sum, h.Sum}, {w.Min, h.Min}, {w.Max, h.Max}, {w.P50, h.P50}, {w.P95, h.P95}, {w.P99, h.P99}} {
			if !same(pair[0], pair[1]) {
				return fmt.Sprintf("histogram %s field %d: %v, want %v", name, i, pair[1], pair[0])
			}
		}
		if h.Count != w.Count || !reflect.DeepEqual(h.Buckets, w.Buckets) {
			return fmt.Sprintf("histogram %s: count or buckets differ", name)
		}
	}
	if len(got.Counters) != len(want.Counters) || len(got.Gauges) != len(want.Gauges) || len(got.Histograms) != len(want.Histograms) {
		return "series sets differ"
	}
	return ""
}

// plainSnapshot is Snapshot without its JSON methods: encoding/json's
// own encoding, which every finite snapshot must keep byte for byte.
type plainSnapshot Snapshot

// TestSnapshotJSONMirrorFields: Snapshot's JSON mirror types carry every
// field of the types they mirror, by name and tag, so a field added to
// HistStat or GaugeStat cannot drop out of the encoding.
func TestSnapshotJSONMirrorFields(t *testing.T) {
	for _, pair := range [][2]reflect.Type{
		{reflect.TypeOf(Snapshot{}), reflect.TypeOf(snapshotJSON{})},
		{reflect.TypeOf(GaugeStat{}), reflect.TypeOf(gaugeJSON{})},
		{reflect.TypeOf(HistStat{}), reflect.TypeOf(histJSON{})},
	} {
		orig, mirror := pair[0], pair[1]
		if orig.NumField() != mirror.NumField() {
			t.Errorf("%s has %d fields, its mirror %s %d", orig, orig.NumField(), mirror, mirror.NumField())
			continue
		}
		for i := 0; i < orig.NumField(); i++ {
			o, m := orig.Field(i), mirror.Field(i)
			if o.Name != m.Name || o.Tag != m.Tag {
				t.Errorf("%s field %d is %s %q, its mirror's %s %q", orig, i, o.Name, o.Tag, m.Name, m.Tag)
			}
		}
	}
}

// TestSnapshotJSONNonFinite: a snapshot holding +Inf, -Inf and NaN
// writes its JSON file (encoding/json alone refuses such a value) with
// each non-finite float as a string, and reads back bit for bit. A
// finite snapshot keeps encoding/json's own bytes and decodes as
// encoding/json decodes them.
func TestSnapshotJSONNonFinite(t *testing.T) {
	want := nonFiniteSnapshot()
	path := filepath.Join(t.TempDir(), "m.json")
	if err := want.WriteJSON(path); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{`"+Inf"`, `"-Inf"`, `"NaN"`} {
		if !strings.Contains(string(data), s) {
			t.Errorf("snapshot file lacks %s", s)
		}
	}
	got := &Snapshot{}
	if err := json.Unmarshal(data, got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d := sameSnapshotBits(want, got); d != "" {
		t.Fatalf("round trip: %s", d)
	}

	finite := New()
	finite.Histogram("h").Observe(1e-9)
	finite.Histogram("h").Observe(-3.5e300)
	finite.Gauge("g").Set(1, 1e22)
	finite.Gauge("g").Set(2, math.Copysign(0, -1))
	finite.Counter("c").Add(0.1)
	snap := finite.Snapshot(3)
	enc, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := json.Marshal((*plainSnapshot)(snap))
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(plain) {
		t.Fatalf("finite snapshot changed bytes:\n%s\n%s", enc, plain)
	}
	var viaPlain plainSnapshot
	viaMirror := &Snapshot{}
	if err := json.Unmarshal(plain, &viaPlain); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(plain, viaMirror); err != nil {
		t.Fatal(err)
	}
	if d := sameSnapshotBits((*Snapshot)(&viaPlain), viaMirror); d != "" {
		t.Fatalf("finite decode: %s", d)
	}
}
