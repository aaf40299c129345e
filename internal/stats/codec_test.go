package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randAgg builds an aggregate of n random runs.
func randAgg(r *rand.Rand, n int) *Agg {
	a := &Agg{}
	for i := 0; i < n; i++ {
		a.Add(RunResult{
			Overheads: Overheads{
				Checkpoint: r.Float64() * 1e4,
				Recompute:  r.Float64() * 1e4,
				Recovery:   r.Float64() * 1e3,
			},
			WallSeconds:       1e5 + r.Float64()*1e5,
			Failures:          r.Intn(20),
			Predicted:         r.Intn(20),
			Mitigated:         r.Intn(10),
			Avoided:           r.Intn(10),
			Checkpoints:       r.Intn(400),
			ProactiveCkpts:    r.Intn(40),
			Migrations:        r.Intn(10),
			AbortedMigrations: r.Intn(5),
		})
	}
	return a
}

// Serialization makes Agg a persistence format: the encode/decode cycle
// must be lossless, including every float64 bit pattern.
func TestAggJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a := randAgg(r, r.Intn(40))
		data, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		b := &Agg{}
		if err := json.Unmarshal(data, b); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if a.N() != b.N() {
			t.Fatalf("trial %d: N %d != %d", trial, a.N(), b.N())
		}
		for i, ar := range a.Runs() {
			if !reflect.DeepEqual(ar, b.Runs()[i]) {
				t.Fatalf("trial %d run %d: %+v != %+v", trial, i, ar, b.Runs()[i])
			}
		}
	}
}

// A decoded aggregate must answer derived queries exactly as the
// original (bitwise — same runs in the same order).
func TestAggJSONRoundTripDerived(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := randAgg(r, 64)
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	b := &Agg{}
	if err := json.Unmarshal(data, b); err != nil {
		t.Fatal(err)
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
	if a.TotalSummary() != b.TotalSummary() {
		t.Errorf("TotalSummary: %v != %v", a.TotalSummary(), b.TotalSummary())
	}
}

// mergeAll folds shards left to right into a fresh aggregate.
func mergeAll(shards ...*Agg) *Agg {
	out := &Agg{}
	for _, s := range shards {
		out.Merge(s)
	}
	return out
}

// relClose compares within relative tolerance (summation order may
// differ between merge orders, so bitwise equality is not guaranteed).
func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// Merge associativity is exact: (s1+s2)+s3 and s1+(s2+s3) concatenate
// runs identically.
func TestAggMergeAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		s1, s2, s3 := randAgg(r, r.Intn(20)), randAgg(r, r.Intn(20)), randAgg(r, r.Intn(20))
		left := mergeAll(mergeAll(s1, s2), s3)
		right := mergeAll(s1, mergeAll(s2, s3))
		if !reflect.DeepEqual(left.Runs(), right.Runs()) {
			t.Fatalf("trial %d: associativity violated", trial)
		}
	}
}

// Merge commutativity holds for every derived statistic (up to float64
// summation order): shard order must not change what the sweep reports.
func TestAggMergeCommutativeDerived(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		shards := []*Agg{randAgg(r, 1+r.Intn(20)), randAgg(r, 1+r.Intn(20)), randAgg(r, 1+r.Intn(20)), randAgg(r, 1+r.Intn(20))}
		fwd := mergeAll(shards...)
		rev := mergeAll(shards[3], shards[1], shards[2], shards[0])
		if fwd.N() != rev.N() {
			t.Fatalf("trial %d: N %d != %d", trial, fwd.N(), rev.N())
		}
		// Pooled integer accounting is order-independent and exact.
		if fwd.MeanFTRatio() != rev.MeanFTRatio() {
			t.Errorf("trial %d: MeanFTRatio %v != %v", trial, fwd.MeanFTRatio(), rev.MeanFTRatio())
		}
		fo, ro := fwd.MeanOverheads(), rev.MeanOverheads()
		if !relClose(fo.Checkpoint, ro.Checkpoint) || !relClose(fo.Recompute, ro.Recompute) || !relClose(fo.Recovery, ro.Recovery) {
			t.Errorf("trial %d: MeanOverheads %v != %v", trial, fo, ro)
		}
		if !relClose(fwd.MeanWallSeconds(), rev.MeanWallSeconds()) {
			t.Errorf("trial %d: MeanWallSeconds %v != %v", trial, fwd.MeanWallSeconds(), rev.MeanWallSeconds())
		}
		fs, rs := fwd.TotalSummary(), rev.TotalSummary()
		if fs.N != rs.N || fs.Min != rs.Min || fs.Max != rs.Max || !relClose(fs.Mean, rs.Mean) || !relClose(fs.Std, rs.Std) {
			t.Errorf("trial %d: TotalSummary %+v != %+v", trial, fs, rs)
		}
	}
}

// Merging a nil or empty shard is a no-op.
func TestAggMergeEdgeCases(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	a := randAgg(r, 8)
	want := a.N()
	a.Merge(nil)
	a.Merge(&Agg{})
	if a.N() != want {
		t.Fatalf("nil/empty merge changed N: %d != %d", a.N(), want)
	}
}

// bitsEqual reports whether a and b, values of one type, are equal field
// by field, with floats compared by bit pattern (so -0 differs from 0).
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
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
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

// oracleJSON is encoding/json's rendering of a's wire form.
func oracleJSON(a *Agg) ([]byte, error) {
	return json.Marshal(aggJSON{Runs: a.runs, Failed: a.failed})
}

// switchFloats are the values at and around encoding/json's 'f'/'e'
// switch points and the ends of the float64 range.
var switchFloats = []float64{
	0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-7,
	1e20, math.Nextafter(1e21, 0), 1e21, 1.25e21, 5e-324, -5e-324,
	math.MaxFloat64, -math.MaxFloat64, 0.1, -2.5, 1e-10, 123456.78901234567,
}

// codecSeeds returns aggregates covering every wire-form branch: null
// and empty run lists, each omitempty counter and Truncated, a ledger
// whose strings need escaping, and floats at the switch points.
func codecSeeds() []*Agg {
	full := RunResult{
		Overheads:   Overheads{Checkpoint: 1.5, Recompute: 1e-7, Recovery: 1e21},
		WallSeconds: 86400, Failures: 3, Predicted: 2, Mitigated: 1, Avoided: 1,
		Checkpoints: 400, ProactiveCkpts: 7, Migrations: 2, AbortedMigrations: -1,
		BBWriteFailures: 1, PFSWriteFailures: 2, CorruptRestarts: 3, RestartRetries: 4,
		Cascades: 5, Truncated: true,
	}
	seeds := []*Agg{
		{},
		NewAgg([]RunResult{}, nil),
		NewAgg([]RunResult{full}, nil),
		NewAgg(nil, []FailedRun{{Seed: math.MaxUint64, Config: `P2 "CHIMERA" <tier=step> & more`, Err: "panic: line\nnext\ttab é 世界 \x01 \xff \u2028\u2029 \ufffd"}}),
		NewAgg([]RunResult{full, {}}, []FailedRun{{Seed: 0}, {Seed: 42, Config: "a", Err: "\x7f/"}}),
	}
	for i, x := range switchFloats {
		r := RunResult{Overheads: Overheads{Checkpoint: x, Recompute: -x, Recovery: x / 3}, WallSeconds: x}
		switch i % 5 {
		case 0:
			r.BBWriteFailures = i
		case 1:
			r.PFSWriteFailures = -i
		case 2:
			r.CorruptRestarts = i
		case 3:
			r.RestartRetries = i
		case 4:
			r.Cascades = i
		}
		r.Truncated = i%2 == 0
		seeds = append(seeds, NewAgg([]RunResult{r}, nil))
	}
	return seeds
}

// checkDecode runs the strict decoder on data and, when it accepts,
// holds the result to encoding/json: json.Unmarshal must decode the
// accepted bytes to the same runs, bit for bit, and the same ledger, and
// AppendJSON must re-encode the result as json.Marshal does.
func checkDecode(t *testing.T, data []byte) *Agg {
	t.Helper()
	got, n, err := DecodeAggJSON(data, 2)
	if err != nil {
		return nil
	}
	var want aggJSON
	if err := json.Unmarshal(data[:n], &want); err != nil {
		t.Fatalf("decoder accepted %q, which encoding/json rejects: %v", data[:n], err)
	}
	if !bitsEqual(reflect.ValueOf(got.runs), reflect.ValueOf(want.Runs)) {
		t.Fatalf("runs of %q: decoder %+v, encoding/json %+v", data[:n], got.runs, want.Runs)
	}
	if !reflect.DeepEqual(got.failed, want.Failed) {
		t.Fatalf("ledger of %q: decoder %+v, encoding/json %+v", data[:n], got.failed, want.Failed)
	}
	enc, err := got.AppendJSON(nil)
	oracle, oerr := oracleJSON(got)
	if err != nil || oerr != nil || !bytes.Equal(enc, oracle) {
		t.Fatalf("re-encoding %q: AppendJSON %q (%v), json.Marshal %q (%v)", data[:n], enc, err, oracle, oerr)
	}
	if viaMarshaler, err := json.Marshal(got); err != nil || !bytes.Equal(viaMarshaler, oracle) {
		t.Fatalf("re-encoding %q: json.Marshal(*Agg) %q (%v)", data[:n], viaMarshaler, err)
	}
	return got
}

// FuzzAggCodec holds the reflection-free codec to encoding/json in both
// directions. data goes straight to the strict decoder, which must never
// panic and must agree with encoding/json on whatever it accepts. x,
// count and msg build an aggregate whose AppendJSON must equal
// json.Marshal (or fail where it fails, on NaN and ±Inf) and decode back
// to the same runs, bit for bit.
func FuzzAggCodec(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	seeds := append(codecSeeds(), randAgg(r, 1), randAgg(r, 40))
	xs := append(switchFloats, math.NaN(), math.Inf(1), math.Inf(-1))
	for i, a := range seeds {
		data, err := a.AppendJSON(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, xs[i%len(xs)], i-2, `"<&>`+"\n"+`é`)
	}
	f.Fuzz(func(t *testing.T, data []byte, x float64, count int, msg string) {
		checkDecode(t, data)

		runs := []RunResult{
			{Overheads: Overheads{Checkpoint: x, Recompute: -x, Recovery: x * x}, WallSeconds: 1 / x,
				Failures: count, Checkpoints: -count, BBWriteFailures: count, Cascades: count / 2, Truncated: count%2 != 0},
			{Overheads: Overheads{Checkpoint: x / 7}, WallSeconds: x + 1, RestartRetries: count},
		}
		var failed []FailedRun
		if count%3 != 0 {
			failed = []FailedRun{{Seed: uint64(count), Config: msg, Err: msg + msg}}
		}
		a := NewAgg(runs, failed)
		enc, err := a.AppendJSON(nil)
		oracle, oerr := oracleJSON(a)
		if (err != nil) != (oerr != nil) {
			t.Fatalf("AppendJSON error %v, json.Marshal error %v", err, oerr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(enc, oracle) {
			t.Fatalf("AppendJSON %q, json.Marshal %q", enc, oracle)
		}
		got := checkDecode(t, enc)
		if got == nil {
			_, _, err := DecodeAggJSON(enc, 2)
			t.Fatalf("decoder rejected AppendJSON's %q: %v", enc, err)
		}
		if !bitsEqual(reflect.ValueOf(got.runs), reflect.ValueOf(runs)) {
			t.Fatalf("round trip of %q: %+v, want %+v", enc, got.runs, runs)
		}
	})
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
		v.SetString(fmt.Sprintf("field %d <&>", i))
	default:
		t.Fatalf("field kind %s has no case here: extend the codec and this test", v.Kind())
	}
}

// Every field of RunResult and FailedRun must survive the codec, alone
// and together: a field added to either type without a place in
// AppendJSON and the decoder fails here instead of vanishing from the
// cache.
func TestCodecFieldCoverage(t *testing.T) {
	runFields := leafFields(reflect.TypeOf(RunResult{}))
	ledgerFields := leafFields(reflect.TypeOf(FailedRun{}))
	for only := -1; only < len(runFields)+len(ledgerFields); only++ {
		var r RunResult
		var f FailedRun
		for i, path := range runFields {
			if only < 0 || only == i {
				setNonZero(t, reflect.ValueOf(&r).Elem().FieldByIndex(path), i)
			}
		}
		for i, path := range ledgerFields {
			if only < 0 || only == len(runFields)+i {
				setNonZero(t, reflect.ValueOf(&f).Elem().FieldByIndex(path), i)
			}
		}
		a := NewAgg([]RunResult{r}, []FailedRun{f})
		enc, err := a.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if oracle, _ := oracleJSON(a); !bytes.Equal(enc, oracle) {
			t.Fatalf("field %d: AppendJSON %s, json.Marshal %s", only, enc, oracle)
		}
		got, n, err := DecodeAggJSON(enc, 1)
		if err != nil || n != len(enc) {
			t.Fatalf("field %d: decode of %s: %v after %d bytes", only, enc, err, n)
		}
		if !bitsEqual(reflect.ValueOf(got.runs), reflect.ValueOf(a.runs)) || !reflect.DeepEqual(got.failed, a.failed) {
			t.Fatalf("field %d: round trip %+v %+v, want %+v %+v", only, got.runs, got.failed, a.runs, a.failed)
		}
	}
}

// The decoder accepts the wire form only. Each input here is a near
// miss of a valid encoding that encoding/json would write differently
// or not at all.
func TestDecodeAggJSONRejects(t *testing.T) {
	const run = `{"Checkpoint":1.5,"Recompute":2,"Recovery":0,"WallSeconds":100,"Failures":1,"Predicted":0,"Mitigated":0,"Avoided":0,"Checkpoints":3,"ProactiveCkpts":0,"Migrations":0,"AbortedMigrations":0}`
	valid := `{"runs":[` + run + `],"failed":[{"seed":7,"config":"c","err":"e"}]}`
	if _, n, err := DecodeAggJSON([]byte(valid+"tail"), 1); err != nil || n != len(valid) {
		t.Fatalf("valid encoding: %v after %d bytes", err, n)
	}
	for n := 0; n < len(valid); n++ {
		if _, _, err := DecodeAggJSON([]byte(valid[:n]), 1); err == nil {
			t.Fatalf("accepted the %d-byte prefix %q", n, valid[:n])
		}
	}
	sub := func(old, new string) string { return strings.Replace(valid, old, new, 1) }
	bad := []string{
		sub(`{"runs"`, `{ "runs"`),
		sub(`"Checkpoint"`, `"checkpoint"`),
		sub(`"Recompute":2,"Recovery":0`, `"Recovery":0,"Recompute":2`),
		sub(`,"Predicted":0`, ``),
		sub(`"AbortedMigrations":0`, `"AbortedMigrations":0,"BBWriteFailures":0`),
		sub(`"AbortedMigrations":0`, `"AbortedMigrations":0,"Truncated":false`),
		sub(`"AbortedMigrations":0`, `"AbortedMigrations":0,"Cascades":1,"BBWriteFailures":1`),
		sub(`"AbortedMigrations":0`, `"AbortedMigrations":0,"Extra":1`),
		sub(`"Failures":1`, `"Failures":01`),
		sub(`"Failures":1`, `"Failures":-0`),
		sub(`"Failures":1`, `"Failures":1.0`),
		sub(`"Failures":1`, `"Failures":1e0`),
		sub(`"Failures":1`, `"Failures":9223372036854775808`),
		sub(`"Failures":1`, `"Failures":"1"`),
		sub(`"Checkpoint":1.5`, `"Checkpoint":01.5`),
		sub(`"Checkpoint":1.5`, `"Checkpoint":1.`),
		sub(`"Checkpoint":1.5`, `"Checkpoint":.5`),
		sub(`"Checkpoint":1.5`, `"Checkpoint":+1.5`),
		sub(`"Checkpoint":1.5`, `"Checkpoint":1e`),
		sub(`"Checkpoint":1.5`, `"Checkpoint":1e999`),
		sub(`"Checkpoint":1.5`, `"Checkpoint":NaN`),
		sub(`"Checkpoint":1.5`, `"Checkpoint":null`),
		sub(`"seed":7`, `"seed":-7`),
		sub(`"seed":7`, `"seed":18446744073709551616`),
		sub(`[{"seed":7,"config":"c","err":"e"}]`, `[]`),
		sub(`[{"seed":7,"config":"c","err":"e"}]`, `null`),
		sub(`"err":"e"`, `"err":"<"`),
		sub(`"err":"e"`, `"err":"\u003C"`),
		sub(`"err":"e"`, `"err":"\u0041"`),
		sub(`"err":"e"`, `"err":"\u000a"`),
		sub(`"err":"e"`, `"err":"\/"`),
		sub(`"err":"e"`, `"err":"\x"`),
		sub(`"err":"e"`, `"err":"`+"\n"+`"`),
		sub(`"err":"e"`, `"err":"`+"\u2028"+`"`),
		sub(`"err":"e"`, `"err":"`+"\xff"+`"`),
		sub(`"err":"e"`, `"err":"\ud800"`),
		sub(`"err":"e"`, `"err":"\u00"`),
		`{"runs":[]`,
		`{"runs":[],}`,
		`{"runs":[` + run + `,]}`,
		`{"runs":[,` + run + `]}`,
		`{"runs":{}}`,
	}
	for _, in := range bad {
		if in == valid {
			t.Fatalf("substitution did not apply to %q", in)
		}
		if _, _, err := DecodeAggJSON([]byte(in), 1); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}
