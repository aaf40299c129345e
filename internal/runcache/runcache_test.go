package runcache

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"pckpt/internal/metrics"
	"pckpt/internal/stats"
)

func testKey() Key {
	return Key{
		Experiment:  "fig6a",
		Label:       "CHIMERA|OLCF Titan|B|ls=1.000|fn=0.125",
		Policy:      "B",
		Platform:    "platform/v1\napp=CHIMERA|2272|646382|360\n",
		Runs:        200,
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
	if !strings.HasPrefix(k.Canonical(), "runcache/v1\n") {
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
	if got.N() != agg.N() || got.MeanOverheads() != agg.MeanOverheads() || got.MeanFTRatio() != agg.MeanFTRatio() {
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
			// Flip a digit inside the agg payload: still valid JSON,
			// only the checksum can catch it.
			i := strings.Index(string(data), "100.5")
			if i < 0 {
				t.Fatal("payload marker not found")
			}
			data[i] = '9'
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

// parentBlob is the entry envelope as earlier builds declared it and
// wrote it through encoding/json: the oracle for Put's bytes.
type parentBlob struct {
	Key     string          `json:"key"`
	Check   string          `json:"check"`
	Agg     json.RawMessage `json:"agg"`
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// encodingJSONEntry renders an entry entirely through encoding/json, as
// earlier builds' Put did.
func encodingJSONEntry(t *testing.T, k Key, agg *stats.Agg, snap *metrics.Snapshot) []byte {
	t.Helper()
	aggJSON, err := json.Marshal(struct {
		Runs   []stats.RunResult `json:"runs"`
		Failed []stats.FailedRun `json:"failed,omitempty"`
	}{agg.Runs(), agg.Failed()})
	if err != nil {
		t.Fatal(err)
	}
	var met json.RawMessage
	if snap != nil && !snap.Empty() {
		if met, err = json.Marshal(snap); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	h.Write(aggJSON)
	h.Write([]byte{'\n'})
	h.Write(met)
	data, err := json.Marshal(parentBlob{Key: k.Canonical(), Check: hex.EncodeToString(h.Sum(nil)), Agg: aggJSON, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// oddKey has every kind of byte encoding/json escapes in its strings.
func oddKey() Key {
	k := testKey()
	k.Label = "CHIMERA <P2> & \"quoted\" \\ tab\t ctl\x01 del\x7f é 世界 sep\xe2\x80\xa8\xe2\x80\xa9 repl\xef\xbf\xbd"
	k.Platform += "custom=a/b|c\r\n"
	return k
}

// Put writes the bytes encoding/json wrote for the parent envelope, so
// caches filled by earlier builds and by this one are interchangeable.
func TestPutMatchesEncodingJSON(t *testing.T) {
	ledger := stats.NewAgg(testAgg().Runs(), []stats.FailedRun{{Seed: 9, Config: "P2 <step> & co", Err: "panic: \"x\"\nline2 é"}})
	snap := &metrics.Snapshot{Counters: map[string]float64{"sim.P2.failures": 3, "a<b&c": 1e-7}}
	faults := testAgg()
	faults.Add(stats.RunResult{WallSeconds: 1e21, BBWriteFailures: 2, Cascades: 1, Truncated: true})
	cases := []struct {
		name string
		k    Key
		agg  *stats.Agg
		snap *metrics.Snapshot
	}{
		{"plain", testKey(), testAgg(), nil},
		{"metrics", testKey(), testAgg(), snap},
		{"empty-metrics", testKey(), testAgg(), &metrics.Snapshot{}},
		{"odd-key", oddKey(), testAgg(), snap},
		{"ledger", testKey(), ledger, nil},
		{"faults", testKey(), faults, snap},
		{"no-runs", testKey(), stats.NewAgg(nil, nil), nil},
		{"zero-runs", testKey(), stats.NewAgg([]stats.RunResult{}, nil), nil},
		{"sweep", testKey(), benchAgg(), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(tc.k, tc.agg, tc.snap); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(s.path(tc.k.Hash()))
			if err != nil {
				t.Fatal(err)
			}
			if want := encodingJSONEntry(t, tc.k, tc.agg, tc.snap); !bytes.Equal(got, want) {
				t.Fatalf("Put wrote\n%s\nencoding/json writes\n%s", got, want)
			}
			agg, gotSnap, ok := s.Get(tc.k, false)
			if !ok {
				t.Fatal("miss after put")
			}
			if !reflect.DeepEqual(agg.Runs(), tc.agg.Runs()) || !reflect.DeepEqual(agg.Failed(), tc.agg.Failed()) {
				t.Fatalf("Get returned %+v, want %+v", agg, tc.agg)
			}
			if (gotSnap != nil) != (tc.snap != nil && !tc.snap.Empty()) {
				t.Fatalf("Get returned snapshot %+v for %+v", gotSnap, tc.snap)
			}
		})
	}
}

// Get reads only the form Put writes. An entry encoding/json would read
// the same — other spacing, other key order — but that Put never
// writes is evicted and recomputed like a corrupt one.
func TestGetEvictsOtherForms(t *testing.T) {
	k := testKey()
	entry := string(encodingJSONEntry(t, k, testAgg(), nil))
	// rehash recomputes the checksum of an entry whose agg was respaced,
	// so that only its form is wrong.
	rehash := func(e string) string {
		var b parentBlob
		if err := json.Unmarshal([]byte(e), &b); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		h.Write(b.Agg)
		h.Write([]byte{'\n'})
		return strings.Replace(e, b.Check, hex.EncodeToString(h.Sum(nil)), 1)
	}
	var reordered parentBlob
	if err := json.Unmarshal([]byte(entry), &reordered); err != nil {
		t.Fatal(err)
	}
	swapped, err := json.Marshal(struct {
		Check string          `json:"check"`
		Key   string          `json:"key"`
		Agg   json.RawMessage `json:"agg"`
	}{reordered.Check, reordered.Key, reordered.Agg})
	if err != nil {
		t.Fatal(err)
	}
	forms := map[string]string{
		"leading-space":  strings.Replace(entry, `{"key"`, `{ "key"`, 1),
		"trailing-line":  entry + "\n",
		"spaced-agg":     rehash(strings.Replace(entry, `{"runs":[`, `{"runs": [`, 1)),
		"reordered-keys": string(swapped),
		"null-metrics":   strings.TrimSuffix(entry, "}") + `,"metrics":null}`,
	}
	for name, form := range forms {
		t.Run(name, func(t *testing.T) {
			var b parentBlob
			if err := json.Unmarshal([]byte(form), &b); err != nil || b.Key != k.Canonical() {
				t.Fatalf("test entry is not a valid envelope for the key: %v", err)
			}
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			path := s.path(k.Hash())
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(form), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := s.Get(k, false); ok {
				t.Fatal("entry in another form was trusted")
			}
			if st := s.Totals(); st.Evictions != 1 || st.Misses != 1 {
				t.Fatalf("not accounted as evict+miss: %+v", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("entry not removed from disk")
			}
		})
	}
}

// A run with a NaN or infinite float has no JSON form: Put fails, as it
// did through encoding/json, and leaves nothing on disk.
func TestPutRejectsNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		agg := testAgg()
		agg.Add(stats.RunResult{Overheads: stats.Overheads{Recovery: x}, WallSeconds: 1})
		if err := s.Put(testKey(), agg, nil); err == nil {
			t.Fatalf("Put accepted a run with Recovery %v", x)
		}
		if n, st := s.Entries(), s.Totals(); n != 0 || st.Puts != 0 {
			t.Fatalf("failed Put left %d entries, %+v", n, st)
		}
	}
}

// appendString writes the JSON string encoding/json writes, for every
// kind of byte: HTML-sensitive ASCII, control bytes, the separators,
// invalid UTF-8.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	same := func(b []byte) bool {
		want, err := json.Marshal(string(b))
		return err == nil && bytes.Equal(appendString(nil, b), want)
	}
	for _, s := range []string{
		"", "plain", "<>&", `"\/`, "\x00\x01\b\f\n\r\t\x1f\x7f", "é 世界",
		"\xe2\x80\xa8\xe2\x80\xa9", "\xef\xbf\xbd", "\xff\xfe", "a\xc3", "\xe2\x80", oddKey().Canonical(),
	} {
		if !same([]byte(s)) {
			t.Errorf("%q: appendString %s", s, appendString(nil, []byte(s)))
		}
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(s string) bool { return same([]byte(s)) }, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// No truncation and no single-byte change of an entry reads back: the
// key, the checksum and the envelope are matched byte for byte, and the
// checksum covers both payloads. (encoding/json's case-insensitive keys
// let earlier builds read a "Key" or "AGG" field as its lower-case self.)
func TestGetRejectsEveryCorruption(t *testing.T) {
	k := testKey()
	agg := stats.NewAgg(testAgg().Runs(), []stats.FailedRun{{Seed: 1, Config: "c", Err: "e<"}})
	entry := encodingJSONEntry(t, k, agg, &metrics.Snapshot{Counters: map[string]float64{"x": 1}})
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := s.path(k.Hash())
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	get := func(data []byte) bool {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, ok := s.Get(k, false)
		return ok
	}
	for n := 0; n < len(entry); n++ {
		if get(entry[:n]) {
			t.Fatalf("the %d-byte prefix was trusted", n)
		}
	}
	for i := range entry {
		for _, bit := range []byte{0x01, 0x20, 0x80} {
			bad := bytes.Clone(entry)
			bad[i] ^= bit
			if get(bad) {
				t.Fatalf("byte %d (%q) xor %#x was trusted", i, entry[i], bit)
			}
		}
	}
	if !get(entry) {
		t.Fatal("the intact entry missed")
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
