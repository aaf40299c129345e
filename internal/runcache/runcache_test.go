package runcache

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pckpt/internal/metrics"
	"pckpt/internal/stats"
)

func testKey() Key {
	return Key{
		Experiment:  "fig6a",
		Label:       "CHIMERA|OLCF Titan|B|ls=1.000|fn=0.125",
		Policy:      "B",
		Platform:    "platform/v1\napp=CHIMERA|2272|646382|360\n",
		Runs:        2,
		Seed:        42,
		Fingerprint: "pckpt@test",
	}
}

func testAgg() *stats.Agg {
	a := &stats.Agg{}
	a.Add(stats.RunResult{Overheads: stats.Overheads{Checkpoint: 100.5, Recompute: 37.25, Recovery: 3}, WallSeconds: 86400, Failures: 3, Mitigated: 2})
	a.Add(stats.RunResult{Overheads: stats.Overheads{Checkpoint: 90, Recompute: 12}, WallSeconds: 86000, Failures: 1, Avoided: 1})
	return a
}

func TestKeyHashStableAndSensitive(t *testing.T) {
	k := testKey()
	if k.Hash() != testKey().Hash() {
		t.Fatal("hash not stable")
	}
	mutations := []func(*Key){
		func(k *Key) { k.Experiment = "fig6b" },
		func(k *Key) { k.Label += "x" },
		func(k *Key) { k.Policy = "P2" },
		func(k *Key) { k.Platform += "extra\n" },
		func(k *Key) { k.Runs++ },
		func(k *Key) { k.Seed++ },
		func(k *Key) { k.Fingerprint = "pckpt@other" },
	}
	for i, mutate := range mutations {
		m := testKey()
		mutate(&m)
		if m.Hash() == k.Hash() {
			t.Errorf("mutation %d does not change the hash", i)
		}
	}
	if !strings.HasPrefix(string(k.appendCanonical(nil)), "runcache/v1\n") {
		t.Fatal("canonical text missing version header")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	if _, _, ok := s.Get(k, false); ok {
		t.Fatal("hit on empty store")
	}
	agg := testAgg()
	snap := &metrics.Snapshot{Counters: map[string]float64{"failures": 3}}
	if err := s.Put(k, agg, snap); err != nil {
		t.Fatal(err)
	}
	got, gotSnap, ok := s.Get(k, true)
	if !ok {
		t.Fatal("miss after put")
	}
	if len(got.Runs()) != len(agg.Runs()) || got.MeanOverheads() != agg.MeanOverheads() || got.MeanFTRatio() != agg.MeanFTRatio() ||
		got.MeanWallSeconds() != agg.MeanWallSeconds() || got.TotalSummary() != agg.TotalSummary() {
		t.Fatalf("decoded aggregate differs: %+v vs %+v", got, agg)
	}
	if gotSnap == nil || gotSnap.Counters["failures"] != 3 {
		t.Fatalf("decoded snapshot differs: %+v", gotSnap)
	}
	if st := s.Totals(); st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Evictions != 0 {
		t.Fatalf("unexpected totals %+v", st)
	}
	if n := s.Entries(); n != 1 {
		t.Fatalf("Entries() = %d, want 1", n)
	}
}

func TestNeedMetricsUpgrade(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	if err := s.Put(k, testAgg(), nil); err != nil {
		t.Fatal(err)
	}
	// A metered sweep must not accept the metrics-less entry…
	if _, _, ok := s.Get(k, true); ok {
		t.Fatal("metrics-less entry served a metered lookup")
	}
	// …but an un-metered sweep may.
	if _, _, ok := s.Get(k, false); !ok {
		t.Fatal("metrics-less entry missed an un-metered lookup")
	}
	// The recompute's Put upgrades the entry in place.
	if err := s.Put(k, testAgg(), &metrics.Snapshot{Counters: map[string]float64{"x": 1}}); err != nil {
		t.Fatal(err)
	}
	if _, snap, ok := s.Get(k, true); !ok || snap == nil {
		t.Fatal("upgraded entry still misses metered lookups")
	}
	if n := s.Entries(); n != 1 {
		t.Fatalf("upgrade duplicated the entry: %d files", n)
	}
}

// blobPaths lists every blob file in the store.
func blobPaths(t *testing.T, s *Store) []string {
	t.Helper()
	var paths []string
	filepath.WalkDir(filepath.Join(s.Dir(), "objects"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			paths = append(paths, path)
		}
		return nil
	})
	return paths
}

func TestCorruptionDetectedAndEvicted(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip the low bit of the first run's checkpoint overhead:
			// still a well-formed run, only the checksum can catch it.
			i := bytes.Index(data, binary.LittleEndian.AppendUint64(nil, math.Float64bits(100.5)))
			if i < 0 {
				t.Fatal("payload marker not found")
			}
			data[i] ^= 1
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			k := testKey()
			if err := s.Put(k, testAgg(), nil); err != nil {
				t.Fatal(err)
			}
			paths := blobPaths(t, s)
			if len(paths) != 1 {
				t.Fatalf("want 1 blob, have %d", len(paths))
			}
			tc.corrupt(t, paths[0])
			if _, _, ok := s.Get(k, false); ok {
				t.Fatal("corrupt entry was trusted")
			}
			if st := s.Totals(); st.Evictions != 1 || st.Misses != 1 {
				t.Fatalf("corruption not accounted as evict+miss: %+v", st)
			}
			if _, err := os.Stat(paths[0]); !os.IsNotExist(err) {
				t.Fatal("corrupt blob not removed from disk")
			}
		})
	}
}

func TestPerExperimentAccounting(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := testKey(), testKey()
	kb.Experiment = "fig7"
	s.Get(ka, false) // miss
	s.Put(ka, testAgg(), nil)
	s.Get(ka, false) // hit
	s.Get(kb, false) // miss
	per := s.PerExperiment()
	if st := per["fig6a"]; st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("fig6a accounting %+v", st)
	}
	if st := per["fig7"]; st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("fig7 accounting %+v", st)
	}
}

func TestIndexRecordsPuts(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := testKey(), testKey()
	kb.Label += "|2"
	s.Put(ka, testAgg(), nil)
	s.Put(kb, testAgg(), nil)
	f, err := os.Open(filepath.Join(s.Dir(), "index.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e struct {
			Hash       string `json:"hash"`
			Experiment string `json:"experiment"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("index line %d unparsable: %v", lines, err)
		}
		if e.Hash == "" || e.Experiment != "fig6a" {
			t.Fatalf("index line %d malformed: %+v", lines, e)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("index has %d lines, want 2", lines)
	}
}

func TestFingerprintStable(t *testing.T) {
	fp := Fingerprint()
	if fp == "" {
		t.Fatal("empty fingerprint")
	}
	if fp != Fingerprint() {
		t.Fatal("fingerprint not stable within a process")
	}
}

// TestPutGetNonFiniteMetrics: a metered entry whose snapshot holds +Inf,
// -Inf and NaN — in a histogram and a gauge — stores, and a metered Get
// returns every float bit for bit.
func TestPutGetNonFiniteMetrics(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	for name, v := range map[string]float64{"inf": math.Inf(1), "neginf": math.Inf(-1), "nan": math.NaN()} {
		reg.Histogram("h." + name).Observe(v)
		reg.Gauge("g."+name).Set(1, v)
	}
	want := reg.Snapshot(2)
	if err := s.Put(testKey(), testAgg(), want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	_, got, ok := s.Get(testKey(), true)
	if !ok {
		t.Fatal("metered Get missed the entry Put wrote")
	}
	bits := func(vs ...float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	for name, w := range want.Histograms {
		g := got.Histograms[name]
		if !reflect.DeepEqual(bits(g.Sum, g.Min, g.Max, g.P50, g.P95, g.P99), bits(w.Sum, w.Min, w.Max, w.P50, w.P95, w.P99)) || g.Count != w.Count {
			t.Errorf("histogram %s: %+v, want %+v", name, g, w)
		}
	}
	for name, w := range want.Gauges {
		g := got.Gauges[name]
		if !reflect.DeepEqual(bits(g.Integral, g.Seconds, g.Min, g.Max, g.Last), bits(w.Integral, w.Seconds, w.Min, w.Max, w.Last)) {
			t.Errorf("gauge %s: %+v, want %+v", name, g, w)
		}
	}
	if len(got.Histograms) != 3 || len(got.Gauges) != 3 {
		t.Fatalf("Get returned %d histograms and %d gauges, want 3 and 3", len(got.Histograms), len(got.Gauges))
	}
}
