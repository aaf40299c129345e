package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pckpt/internal/metrics"
	"pckpt/internal/stats"
)

// keyFor is testKey with the run count of agg, as the store requires.
func keyFor(agg *stats.Agg) Key {
	k := testKey()
	k.Runs = len(agg.Runs()) + len(agg.Failed())
	return k
}

// bitsEqual reports whether a and b, values of one type, are equal field
// by field, with floats compared by bit pattern (so NaN payloads and -0
// count) and a nil slice equal to an empty one.
func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	default:
		return a.Equal(b)
	}
}

// sameAgg reports whether two aggregates hold the same runs, bit for
// bit, and the same ledger.
func sameAgg(a, b *stats.Agg) bool {
	return bitsEqual(reflect.ValueOf(a.Runs()), reflect.ValueOf(b.Runs())) &&
		bitsEqual(reflect.ValueOf(a.Failed()), reflect.ValueOf(b.Failed()))
}

// roundTripCase is an aggregate and snapshot to store under a name.
type roundTripCase struct {
	name string
	agg  *stats.Agg
	snap *metrics.Snapshot
}

// roundTripCases are aggregates that cover every part of an entry: the
// values a float or counter word can hold, zero runs (nil and empty),
// a ledger alone and with runs, strings of every kind of byte, a
// metrics snapshot, and a fig4-sized sweep.
func roundTripCases() []roundTripCase {
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	signalling := math.Float64frombits(0x7ff0_0000_0000_0001)
	specials := stats.RunResult{
		Overheads:   stats.Overheads{Checkpoint: nanPayload, Recompute: math.Inf(1), Recovery: math.Copysign(0, -1)},
		WallSeconds: math.Inf(-1),
	}
	tiny := stats.RunResult{
		Overheads:   stats.Overheads{Checkpoint: signalling, Recompute: math.SmallestNonzeroFloat64, Recovery: -math.MaxFloat64},
		WallSeconds: math.MaxFloat64,
	}
	extremes := stats.RunResult{
		Failures: math.MaxInt, Predicted: math.MinInt, Mitigated: -1, Avoided: -2,
		Checkpoints: math.MaxInt - 1, ProactiveCkpts: math.MinInt + 1, Migrations: 1 << 40, AbortedMigrations: -1 << 40,
		BBWriteFailures: -3, PFSWriteFailures: math.MaxInt, CorruptRestarts: math.MinInt, RestartRetries: 7, Cascades: -7,
		Truncated: true,
	}
	faults := testAgg()
	faults.Add(stats.RunResult{WallSeconds: 1e21, BBWriteFailures: 2, Cascades: 1, Truncated: true})
	odd := []stats.FailedRun{
		{Seed: math.MaxUint64, Config: "P2 <step> & \"co\"\x00nul", Err: "panic: \xff\xfe invalid\nline2 é 世界 \u2028\u2029"},
		{Seed: 0},
		{Seed: 9, Config: "\x00", Err: "<>&"},
	}
	snap := &metrics.Snapshot{Counters: map[string]float64{"sim.P2.failures": 3, "a<b&c": 1e-7}}
	return []roundTripCase{
		{"plain", testAgg(), nil},
		{"metrics", testAgg(), snap},
		{"empty-metrics", testAgg(), &metrics.Snapshot{}},
		{"odd-key", testAgg(), snap},
		{"ledger", stats.NewAgg(testAgg().Runs(), odd), nil},
		{"faults", faults, snap},
		{"no-runs", stats.NewAgg(nil, nil), nil},
		{"zero-runs", stats.NewAgg([]stats.RunResult{}, nil), nil},
		{"all-failed", stats.NewAgg(nil, odd), nil},
		{"special-floats", stats.NewAgg([]stats.RunResult{specials, tiny}, nil), nil},
		{"extreme-ints", stats.NewAgg([]stats.RunResult{extremes, {}}, nil), nil},
		{"sweep", benchAgg(), nil},
	}
}

// oddKey has every kind of byte in its strings.
func oddKey(runs int) Key {
	k := testKey()
	k.Runs = runs
	k.Label = "CHIMERA <P2> & \"quoted\" \\ tab\t nul\x00 del\x7f é 世界 sep\u2028\u2029 invalid\xff\xfe"
	k.Platform += "custom=a/b|c\r\n"
	return k
}

// Put then Get returns every run and ledger entry bit for bit, the
// snapshot when it has a series, and nothing else.
func TestEntryRoundTrip(t *testing.T) {
	for _, tc := range roundTripCases() {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			k := keyFor(tc.agg)
			if tc.name == "odd-key" {
				k = oddKey(k.Runs)
			}
			if err := s.Put(k, tc.agg, tc.snap); err != nil {
				t.Fatal(err)
			}
			agg, snap, ok := s.Get(k, false)
			if !ok {
				t.Fatal("miss after put")
			}
			if !sameAgg(agg, tc.agg) {
				t.Fatalf("Get returned %+v %+v, want %+v %+v", agg.Runs(), agg.Failed(), tc.agg.Runs(), tc.agg.Failed())
			}
			if tc.snap.Empty() {
				if snap != nil {
					t.Fatalf("Get returned snapshot %+v for %+v", snap, tc.snap)
				}
			} else if !reflect.DeepEqual(snap, tc.snap) {
				t.Fatalf("Get returned snapshot %+v, want %+v", snap, tc.snap)
			}
		})
	}
}

// A run with a NaN or infinite float round-trips bit for bit: a sweep
// whose runs hold one caches and re-reads it as an uncached sweep
// reports it. (The JSON entry had no form for such a run, so Put used
// to fail and end the sweep.)
func TestPutGetNonFiniteRuns(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		agg := testAgg()
		agg.Add(stats.RunResult{Overheads: stats.Overheads{Recovery: x}, WallSeconds: x})
		k := keyFor(agg)
		if err := s.Put(k, agg, nil); err != nil {
			t.Fatalf("Put of a run with %v: %v", x, err)
		}
		got, _, ok := s.Get(k, false)
		if !ok || !sameAgg(got, agg) {
			t.Fatalf("Get of a run with %v: %t, %+v", x, ok, got)
		}
	}
}

// setRandom sets a leaf field to a random value of its whole range:
// floats of any bit pattern, counters of any word, strings of any bytes.
func setRandom(t *testing.T, r *rand.Rand, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(r.Uint64()))
	case reflect.Int:
		v.SetInt(int64(r.Uint64()))
	case reflect.Uint64:
		v.SetUint(r.Uint64())
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 1)
	case reflect.String:
		b := make([]byte, r.Intn(24))
		r.Read(b)
		v.SetString(string(b))
	default:
		t.Fatalf("field kind %s has no case here: extend the entry and this test", v.Kind())
	}
}

// randAgg builds an aggregate of n runs and up to three failed runs,
// every field of each set by setRandom.
func randAgg(t *testing.T, r *rand.Rand, n int) *stats.Agg {
	runs := make([]stats.RunResult, n)
	for i := range runs {
		for _, path := range leafFields(reflect.TypeOf(stats.RunResult{})) {
			setRandom(t, r, reflect.ValueOf(&runs[i]).Elem().FieldByIndex(path))
		}
	}
	failed := make([]stats.FailedRun, r.Intn(4))
	for i := range failed {
		for _, path := range leafFields(reflect.TypeOf(stats.FailedRun{})) {
			setRandom(t, r, reflect.ValueOf(&failed[i]).Elem().FieldByIndex(path))
		}
	}
	return stats.NewAgg(runs, failed)
}

// An entry is a persistence format: encoding then decoding random
// aggregates loses nothing, down to each float's bit pattern.
func TestAggEntryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a := randAgg(t, r, r.Intn(40))
		k := keyFor(a)
		canon := k.appendCanonical(nil)
		got, met, ok := decodeEntry(appendEntry(nil, canon, a, nil), canon, k.Runs)
		if !ok || len(met) != 0 || !sameAgg(got, a) {
			t.Fatalf("trial %d: %d runs and %d failed did not round-trip (decoded %t, metrics %q)", trial, len(a.Runs()), len(a.Failed()), ok, met)
		}
	}
}

// An aggregate read back from the store answers every derived query
// exactly as the one stored: the same runs in the same order sum the
// same way.
func TestAggEntryRoundTripDerived(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := benchAgg()
	a.Add(stats.RunResult{WallSeconds: 5e5, Failures: 2, Avoided: 1, BBWriteFailures: 3, Cascades: 1, Truncated: true})
	a.AddFailed(stats.FailedRun{Seed: 9, Config: "P2", Err: "panic"})
	k := keyFor(a)
	if err := s.Put(k, a, nil); err != nil {
		t.Fatal(err)
	}
	b, _, ok := s.Get(k, false)
	if !ok {
		t.Fatal("miss after put")
	}
	if a.MeanOverheads() != b.MeanOverheads() {
		t.Errorf("MeanOverheads: %v != %v", a.MeanOverheads(), b.MeanOverheads())
	}
	if a.MeanFTRatio() != b.MeanFTRatio() {
		t.Errorf("MeanFTRatio: %v != %v", a.MeanFTRatio(), b.MeanFTRatio())
	}
	if a.MeanWallSeconds() != b.MeanWallSeconds() {
		t.Errorf("MeanWallSeconds: %v != %v", a.MeanWallSeconds(), b.MeanWallSeconds())
	}
	if a.FaultTotals() != b.FaultTotals() {
		t.Errorf("FaultTotals: %+v != %+v", a.FaultTotals(), b.FaultTotals())
	}
	if a.TotalSummary() != b.TotalSummary() {
		t.Errorf("TotalSummary: %+v != %+v", a.TotalSummary(), b.TotalSummary())
	}
}

// leafFields returns the index paths of t's non-struct fields, through
// embedded and nested structs.
func leafFields(t reflect.Type) [][]int {
	var out [][]int
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() == reflect.Struct {
			for _, sub := range leafFields(f.Type) {
				out = append(out, append([]int{i}, sub...))
			}
			continue
		}
		out = append(out, []int{i})
	}
	return out
}

// setNonZero sets a leaf field to a value distinct for each i.
func setNonZero(t *testing.T, v reflect.Value, i int) {
	t.Helper()
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(float64(i) + 0.25)
	case reflect.Int:
		v.SetInt(int64(i) + 1)
	case reflect.Uint64:
		v.SetUint(uint64(i) + 1)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprintf("field %d", i))
	default:
		t.Fatalf("field kind %s has no case here: extend the entry and this test", v.Kind())
	}
}

// Every field of RunResult and FailedRun must survive an entry, alone
// and together: a field added to either type without a place in the
// entry fails here instead of vanishing from the cache.
func TestCodecFieldCoverage(t *testing.T) {
	runLeaves := leafFields(reflect.TypeOf(stats.RunResult{}))
	ledgerLeaves := leafFields(reflect.TypeOf(stats.FailedRun{}))
	canon := keyFor(stats.NewAgg(make([]stats.RunResult, 1), make([]stats.FailedRun, 1))).appendCanonical(nil)
	for only := -1; only < len(runLeaves)+len(ledgerLeaves); only++ {
		var r stats.RunResult
		var f stats.FailedRun
		for i, path := range runLeaves {
			if only < 0 || only == i {
				setNonZero(t, reflect.ValueOf(&r).Elem().FieldByIndex(path), i)
			}
		}
		for i, path := range ledgerLeaves {
			if only < 0 || only == len(runLeaves)+i {
				setNonZero(t, reflect.ValueOf(&f).Elem().FieldByIndex(path), i)
			}
		}
		a := stats.NewAgg([]stats.RunResult{r}, []stats.FailedRun{f})
		got, met, ok := decodeEntry(appendEntry(nil, canon, a, nil), canon, 2)
		if !ok || len(met) != 0 || !sameAgg(got, a) {
			t.Fatalf("field %d: round trip %t %+v %+v, want %+v %+v", only, ok, got.Runs(), got.Failed(), a.Runs(), a.Failed())
		}
	}
}

// frame wraps payload in the tag, key text and checksum an entry for
// canon carries.
func frame(canon, payload []byte) []byte {
	out := append([]byte(entryTag), binary.LittleEndian.AppendUint64(nil, uint64(len(canon)))...)
	out = append(out, canon...)
	sum := sha256.Sum256(payload)
	return append(append(out, sum[:]...), payload...)
}

// payloadOf returns the payload of an entry for canon.
func payloadOf(entry, canon []byte) []byte {
	return entry[len(entryTag)+wordLen+len(canon)+sha256.Size:]
}

// FuzzEntryCodec reads arbitrary bytes as an entry, and framed with the
// key text and checksum as a payload, so that they reach the payload
// decoder. Neither read may panic or allocate more than twice its
// input's length: a count the bytes left cannot hold allocates nothing,
// and a decoded run or ledger entry takes at most twice its encoding.
// Whatever decodes must re-encode to the same bytes.
func FuzzEntryCodec(f *testing.F) {
	for _, tc := range roundTripCases() {
		var met []byte
		if !tc.snap.Empty() {
			met = []byte(`{"counters":{"x":1}}`)
		}
		k := keyFor(tc.agg)
		entry := appendEntry(nil, k.appendCanonical(nil), tc.agg, met)
		f.Add(entry, k.Runs)
		f.Add(payloadOf(entry, k.appendCanonical(nil)), k.Runs)
	}
	// An entry earlier builds wrote, which no read may take.
	jsonEntry, err := os.ReadFile(filepath.Join("testdata", "json-entry.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(jsonEntry, 2)
	f.Fuzz(func(t *testing.T, data []byte, runs int) {
		k := testKey()
		k.Runs = runs
		canon := k.appendCanonical(nil)
		for _, entry := range [][]byte{data, frame(canon, data)} {
			var agg *stats.Agg
			var met []byte
			var ok bool
			// The aggregate's own header and the size classes its slices
			// round up to are the constant.
			n := allocBytes(func() { agg, met, ok = decodeEntry(entry, canon, runs) })
			if n > uint64(2*len(data)+256) {
				t.Fatalf("reading %d bytes allocated %d", len(data), n)
			}
			if !ok {
				continue
			}
			if again := appendEntry(nil, canon, agg, met); !bytes.Equal(again, entry) {
				t.Fatalf("entry %x decoded to %+v %+v %q, which encodes as %x", entry, agg.Runs(), agg.Failed(), met, again)
			}
		}
	})
}

// allocBytes returns the fewest bytes f allocated over three calls, so
// that what another goroutine allocates meanwhile does not count.
func allocBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// The decoder reads the layout appendEntry writes and nothing near it.
// Every proper prefix of a payload, framed with a checksum that matches,
// is refused, and so is each near miss here, for the key and the run
// count it was written for.
func TestDecodeEntryRejects(t *testing.T) {
	agg := stats.NewAgg(testAgg().Runs(), []stats.FailedRun{{Seed: 7, Config: "c", Err: "e"}})
	k := keyFor(agg)
	canon := k.appendCanonical(nil)
	entry := appendEntry(nil, canon, agg, nil)
	if got, met, ok := decodeEntry(entry, canon, k.Runs); !ok || len(met) != 0 || !sameAgg(got, agg) {
		t.Fatalf("valid entry: %t %q %+v %+v", ok, met, got.Runs(), got.Failed())
	}
	payload := payloadOf(entry, canon)
	for n := 0; n < len(payload); n++ {
		if _, _, ok := decodeEntry(frame(canon, payload[:n]), canon, k.Runs); ok {
			t.Fatalf("accepted the %d-byte prefix of the payload", n)
		}
	}
	// edit frames a changed copy of the payload with its own checksum.
	edit := func(change func(p []byte)) []byte {
		p := bytes.Clone(payload)
		change(p)
		return frame(canon, p)
	}
	setWord := func(at int, w uint64) []byte {
		return edit(func(p []byte) { binary.LittleEndian.PutUint64(p[at:], w) })
	}
	ledger := 2*wordLen + 2*runLen // the failed run's seed
	otherKey := bytes.Clone(canon)
	otherKey[len(otherKey)-2] ^= 1
	bad := map[string][]byte{
		"empty":           nil,
		"tag":             append([]byte("runcache-entry/v1\n"), entry[len(entryTag):]...),
		"key-length":      slices.Concat([]byte(entryTag), binary.LittleEndian.AppendUint64(nil, uint64(len(canon)+1)), entry[len(entryTag)+wordLen:]),
		"key-text":        frame(otherKey, payload),
		"checksum":        slices.Concat(entry[:len(entry)-len(payload)-1], []byte{entry[len(entry)-len(payload)-1] ^ 1}, payload),
		"fewer-runs":      setWord(0, 1),
		"more-runs":       setWord(0, 3),
		"runs-as-ledger":  edit(func(p []byte) { binary.LittleEndian.PutUint64(p, 1); binary.LittleEndian.PutUint64(p[wordLen:], 2) }),
		"run-count":       setWord(0, math.MaxUint64),
		"failed-count":    setWord(wordLen, math.MaxUint64),
		"truncation-byte": edit(func(p []byte) { p[2*wordLen+runLen-1] = 2 }),
		"truncation-0xff": edit(func(p []byte) { p[2*wordLen+2*runLen-1] = 0xff }),
		"config-length":   setWord(ledger+wordLen, 2),
		"err-length":      setWord(ledger+2*wordLen+1, 2),
		"huge-err-length": setWord(ledger+2*wordLen+1, math.MaxUint64),
	}
	for name, in := range bad {
		if bytes.Equal(in, entry) {
			t.Fatalf("%s: the edit left the entry as it was", name)
		}
		if _, _, ok := decodeEntry(in, canon, k.Runs); ok {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, runs := range []int{k.Runs - 1, k.Runs + 1, 0} {
		if _, _, ok := decodeEntry(entry, canon, runs); ok {
			t.Errorf("accepted an entry of %d runs for a key of %d", k.Runs, runs)
		}
	}
}

// Get reads only the bytes Put writes. Each form here is evicted and
// reported as a miss, and the recompute's Put then hits: the JSON entry
// earlier builds wrote at the key's path, and near misses of the entry
// Put writes, each with its checksum recomputed so that only its form
// is wrong.
func TestGetEvictsOtherForms(t *testing.T) {
	k := testKey()
	canon := k.appendCanonical(nil)
	entry := appendEntry(nil, canon, testAgg(), nil)
	payload := payloadOf(entry, canon)
	// edit changes a copy of the payload and frames it with a fresh
	// checksum, so that only its form is wrong.
	edit := func(change func(p []byte) []byte) []byte {
		return frame(canon, change(bytes.Clone(payload)))
	}
	setWord := func(at int, w uint64) func([]byte) []byte {
		return func(p []byte) []byte { binary.LittleEndian.PutUint64(p[at:], w); return p }
	}
	// The entry an earlier build wrote for k, captured from it.
	jsonEntry, err := os.ReadFile(filepath.Join("testdata", "json-entry.json"))
	if err != nil {
		t.Fatal(err)
	}
	threeRuns := testAgg()
	threeRuns.Add(stats.RunResult{})
	secondRun := 2*wordLen + runLen
	head := entry[len(entryTag) : len(entryTag)+wordLen+len(canon)] // the key text and its length
	check := entry[len(entryTag)+len(head):][:sha256.Size]
	forms := map[string][]byte{
		"json-entry":    jsonEntry,
		"leading-space": append([]byte(" "), entry...),
		// The checksum before the key text instead of after it.
		"reordered-keys":  slices.Concat([]byte(entryTag), check, head, payload),
		"trailing-line":   edit(func(p []byte) []byte { return append(p, '\n') }),
		"null-metrics":    edit(func(p []byte) []byte { return append(p, "null"...) }),
		"empty-metrics":   edit(func(p []byte) []byte { return append(p, "{}"...) }),
		"spaced-agg":      edit(func(p []byte) []byte { return slices.Insert(p, secondRun, 0) }),
		"truncation-byte": edit(func(p []byte) []byte { p[secondRun-1] = 2; return p }),
		"runs-mismatch":   appendEntry(nil, canon, threeRuns, nil),
		"run-count":       edit(setWord(0, math.MaxUint64)),
		"failed-count":    edit(setWord(wordLen, 1<<62)),
	}
	for name, form := range forms {
		t.Run(name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			path := s.path(k.Hash())
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, form, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := s.Get(k, false); ok {
				t.Fatal("entry in another form was trusted")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("entry not removed from disk")
			}
			if err := s.Put(k, testAgg(), nil); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := s.Get(k, false); !ok {
				t.Fatal("the recomputed entry missed")
			}
			if st := s.Totals(); st != (Stats{Hits: 1, Misses: 1, Puts: 1, Evictions: 1}) {
				t.Fatalf("want one eviction, one recompute and a hit: %+v", st)
			}
		})
	}
}

// No truncation and no single-byte change of an entry reads back: the
// tag, the key text and the checksum are matched byte for byte, and the
// checksum covers the whole payload, metrics included. Each such read
// evicts the entry.
func TestGetRejectsEveryCorruption(t *testing.T) {
	agg := stats.NewAgg(testAgg().Runs(), []stats.FailedRun{{Seed: 1, Config: "c", Err: "e<"}})
	k := keyFor(agg)
	canon := k.appendCanonical(nil)
	entry := appendEntry(nil, canon, agg, []byte(`{"counters":{"x":1}}`))
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
	bad := 0
	for n := 0; n < len(entry); n++ {
		if get(entry[:n]) {
			t.Fatalf("the %d-byte prefix was trusted", n)
		}
		bad++
	}
	for i := range entry {
		for _, bit := range []byte{0x01, 0x20, 0x80} {
			flipped := bytes.Clone(entry)
			flipped[i] ^= bit
			if get(flipped) {
				t.Fatalf("byte %d (%#x) xor %#x was trusted", i, entry[i], bit)
			}
			bad++
		}
	}
	if !get(entry) {
		t.Fatal("the intact entry missed")
	}
	if st := s.Totals(); st.Evictions != bad || st.Misses != bad || st.Hits != 1 {
		t.Fatalf("%d corrupt reads: %+v", bad, st)
	}
}
