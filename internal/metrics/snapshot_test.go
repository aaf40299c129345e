package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// mapMerge is the map-and-sort histogram merge the linear merge
// replaced, kept as its oracle.
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

// TestHistMergeMatchesMapOracle folds random shards with both merges and
// requires every field bit-identical after every step, the derived
// quantiles included.
func TestHistMergeMatchesMapOracle(t *testing.T) {
	f := func(shards [][]uint16) bool {
		var got, want HistStat
		for _, shard := range shards {
			r := New()
			h := r.Histogram("h")
			for _, x := range shard {
				// Spread observations over 2^-25 … 2^39, past both ends
				// of the bucket layout, with some exact zeros.
				v := math.Exp2(float64(x%512)/8 - 25)
				if x%97 == 0 {
					v = 0
				}
				h.Observe(v)
			}
			o := r.Snapshot(0).Histograms["h"]
			got.merge(o)
			mapMerge(&want, o)
			if (&Snapshot{Histograms: map[string]HistStat{"h": got}}).Diff(
				&Snapshot{Histograms: map[string]HistStat{"h": want}}) != "" {
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
	// A further Add merges into the collector's own storage only.
	kept := col.Snapshot()
	col.Add(shard(32))
	if d := kept.Diff(want); d != "" {
		t.Fatalf("Add changed a returned snapshot: %s", d)
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
