package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Agg is persisted by internal/runcache, which makes its JSON encoding a
// storage format: the full run list is serialized (not just the derived
// means), so a decoded aggregate answers every query — MeanOverheads,
// MeanFTRatio, TotalSummary, per-run inspection — exactly as the
// original did.
//
// The format is json.Marshal of aggJSON, byte for byte. AppendJSON
// writes it without reflection: floats shortest-round-trip through
// strconv.AppendFloat with encoding/json's 'f'/'e' switch, so the
// encode/decode cycle is lossless bit for bit. DecodeAggJSON reads that
// form back in one pass and rejects every other layout. codec_test.go
// and FuzzAggCodec hold both to encoding/json as the oracle.

// aggJSON is the wire form of an Agg. The failed-run ledger is omitted
// when empty, so aggregates from healthy sweeps encode exactly as they
// did before the ledger existed.
type aggJSON struct {
	Runs   []RunResult `json:"runs"`
	Failed []FailedRun `json:"failed,omitempty"`
}

// The wire keys of a RunResult in encoding/json's field order, each with
// its leading delimiter. floatFields, countFields and faultFields list
// the fields in the same order, so appendRun and (*decoder).run share
// one schema.
var (
	floatKeys = [...]string{`{"Checkpoint":`, `,"Recompute":`, `,"Recovery":`, `,"WallSeconds":`}
	countKeys = [...]string{`,"Failures":`, `,"Predicted":`, `,"Mitigated":`, `,"Avoided":`,
		`,"Checkpoints":`, `,"ProactiveCkpts":`, `,"Migrations":`, `,"AbortedMigrations":`}
	faultKeys = [...]string{`,"BBWriteFailures":`, `,"PFSWriteFailures":`, `,"CorruptRestarts":`,
		`,"RestartRetries":`, `,"Cascades":`}
)

const truncatedKey = `,"Truncated":true`

func (r *RunResult) floatFields() [len(floatKeys)]*float64 {
	return [...]*float64{&r.Checkpoint, &r.Recompute, &r.Recovery, &r.WallSeconds}
}

func (r *RunResult) countFields() [len(countKeys)]*int {
	return [...]*int{&r.Failures, &r.Predicted, &r.Mitigated, &r.Avoided,
		&r.Checkpoints, &r.ProactiveCkpts, &r.Migrations, &r.AbortedMigrations}
}

// faultFields are the omitempty counters: written only when non-zero.
func (r *RunResult) faultFields() [len(faultKeys)]*int {
	return [...]*int{&r.BBWriteFailures, &r.PFSWriteFailures, &r.CorruptRestarts,
		&r.RestartRetries, &r.Cascades}
}

// MarshalJSON implements json.Marshaler.
func (a *Agg) MarshalJSON() ([]byte, error) { return a.AppendJSON(nil) }

// AppendJSON appends a's wire form to dst: the bytes json.Marshal writes
// for aggJSON. A NaN or infinite float has no JSON form and is an error,
// as it is for encoding/json.
func (a *Agg) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"runs":`...)
	if a.runs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range a.runs {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendRun(dst, &a.runs[i]); err != nil {
				return dst, fmt.Errorf("stats: run %d: %w", i, err)
			}
		}
		dst = append(dst, ']')
	}
	if len(a.failed) > 0 {
		// The ledger is rare and its strings need encoding/json's
		// escaping, so it keeps the general encoder.
		ledger, err := json.Marshal(a.failed)
		if err != nil {
			return dst, err
		}
		dst = append(dst, `,"failed":`...)
		dst = append(dst, ledger...)
	}
	return append(dst, '}'), nil
}

// appendRun appends one run's JSON object.
func appendRun(dst []byte, r *RunResult) ([]byte, error) {
	for i, f := range r.floatFields() {
		dst = append(dst, floatKeys[i]...)
		var err error
		if dst, err = appendFloat(dst, *f); err != nil {
			return dst, err
		}
	}
	for i, n := range r.countFields() {
		dst = append(dst, countKeys[i]...)
		dst = strconv.AppendInt(dst, int64(*n), 10)
	}
	for i, n := range r.faultFields() {
		if *n != 0 {
			dst = append(dst, faultKeys[i]...)
			dst = strconv.AppendInt(dst, int64(*n), 10)
		}
	}
	if r.Truncated {
		dst = append(dst, truncatedKey...)
	}
	return append(dst, '}'), nil
}

// appendFloat renders f as encoding/json does: shortest round-trip
// digits, in exponent form below 1e-6 and from 1e21 up, with a
// single-digit negative exponent unpadded (1e-7, not 1e-07).
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// UnmarshalJSON implements json.Unmarshaler, replacing any previously
// recorded runs. Unlike DecodeAggJSON it accepts any JSON rendering of
// the wire form.
func (a *Agg) UnmarshalJSON(data []byte) error {
	var w aggJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	a.runs = w.Runs
	a.failed = w.Failed
	return nil
}

// DecodeAggJSON decodes the wire form AppendJSON writes from the head of
// src, which may continue past it, and returns the aggregate and the
// number of bytes it spans. Runs are decoded in place into a run slice
// presized for sizeHint runs. The decode is strict: every key in its
// order, no whitespace, integers as strconv writes them, zero counters
// omitted, Truncated present only when true, and ledger strings escaped
// as encoding/json escapes them. Anything else is an error. A float may
// be any JSON number, parsed to the float64 encoding/json would give;
// checking that its digits are the shortest form as well would mean
// re-rendering every float, which measured about half again the time of
// a cache lookup.
func DecodeAggJSON(src []byte, sizeHint int) (*Agg, int, error) {
	d := decoder{src: src}
	a := &Agg{}
	if !d.lit(`{"runs":`) {
		return nil, 0, d.fail()
	}
	if !d.lit("null") {
		a.runs = make([]RunResult, 0, max(sizeHint, 0))
		if !d.lit("[") {
			return nil, 0, d.fail()
		}
		for !d.lit("]") {
			if len(a.runs) > 0 && !d.lit(",") {
				return nil, 0, d.fail()
			}
			a.runs = append(a.runs, RunResult{})
			if !d.run(&a.runs[len(a.runs)-1]) {
				return nil, 0, d.fail()
			}
		}
	}
	if d.lit(`,"failed":[`) {
		for len(a.failed) == 0 || !d.lit("]") {
			if len(a.failed) > 0 && !d.lit(",") {
				return nil, 0, d.fail()
			}
			var f FailedRun
			if !d.failedRun(&f) {
				return nil, 0, d.fail()
			}
			a.failed = append(a.failed, f)
		}
	}
	if !d.lit("}") {
		return nil, 0, d.fail()
	}
	return a, d.pos, nil
}

// decoder is a cursor over an aggregate's wire form. Its methods consume
// one token each and report whether it was there, in a form the wire
// allows.
type decoder struct {
	src []byte
	pos int
}

func (d *decoder) fail() error {
	return fmt.Errorf("stats: aggregate JSON: unexpected input at byte %d", d.pos)
}

// lit consumes s if the input continues with it.
func (d *decoder) lit(s string) bool {
	if len(d.src)-d.pos < len(s) || string(d.src[d.pos:d.pos+len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

func (d *decoder) run(r *RunResult) bool {
	for i, f := range r.floatFields() {
		if !d.lit(floatKeys[i]) || !d.float(f) {
			return false
		}
	}
	for i, n := range r.countFields() {
		if !d.lit(countKeys[i]) || !d.int(n) {
			return false
		}
	}
	for i, n := range r.faultFields() {
		if d.lit(faultKeys[i]) && (!d.int(n) || *n == 0) {
			return false
		}
	}
	r.Truncated = d.lit(truncatedKey)
	return d.lit("}")
}

func (d *decoder) failedRun(f *FailedRun) bool {
	return d.lit(`{"seed":`) && d.uint(&f.Seed) &&
		d.lit(`,"config":`) && d.str(&f.Config) &&
		d.lit(`,"err":`) && d.str(&f.Err) && d.lit("}")
}

// digits consumes a run of decimal digits and returns how many.
func (d *decoder) digits() int {
	src, i := d.src, d.pos
	for i < len(src) && src[i]-'0' <= 9 {
		i++
	}
	n := i - d.pos
	d.pos = i
	return n
}

// natural consumes a non-negative integer as strconv writes it, 0 or
// [1-9][0-9]*, and reports whether it was there and fits in a uint64.
func (d *decoder) natural() (uint64, bool) {
	start := d.pos
	var v uint64
	for ; d.pos < len(d.src); d.pos++ {
		c := uint64(d.src[d.pos] - '0')
		if c > 9 {
			break
		}
		if v > (math.MaxUint64-c)/10 {
			return 0, false
		}
		v = v*10 + c
	}
	n := d.pos - start
	return v, n == 1 || n > 1 && d.src[start] != '0'
}

// int consumes an integer as strconv.AppendInt writes it.
func (d *decoder) int(p *int) bool {
	neg := d.lit("-")
	v, ok := d.natural()
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	if !ok || v > limit || neg && v == 0 {
		return false
	}
	if *p = int(v); neg {
		*p = int(-v)
	}
	return true
}

func (d *decoder) uint(p *uint64) bool {
	v, ok := d.natural()
	*p = v
	return ok
}

// float consumes a JSON number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
// and parses it as encoding/json does.
func (d *decoder) float(p *float64) bool {
	start := d.pos
	d.lit("-")
	if n := d.digits(); n == 0 || n > 1 && d.src[d.pos-n] == '0' {
		return false
	}
	if d.lit(".") && d.digits() == 0 {
		return false
	}
	if d.lit("e") || d.lit("E") {
		_ = d.lit("+") || d.lit("-")
		if d.digits() == 0 {
			return false
		}
	}
	v, err := strconv.ParseFloat(string(d.src[start:d.pos]), 64)
	*p = v
	return err == nil
}

// str consumes a string in the form encoding/json writes and decodes it
// as json.Unmarshal does. That form has printable ASCII raw, except "
// and \ (escaped with a backslash) and <, > and & (six-byte \u
// escapes); the short escapes \b \f \n \r \t, and \u escapes for the
// other control characters; valid UTF-8 raw, except the line and
// paragraph separators U+2028 and U+2029 (\u escapes); and the \u escape
// of U+FFFD, which stands for an invalid byte of the original.
func (d *decoder) str(p *string) bool {
	if !d.lit(`"`) {
		return false
	}
	var out []byte
	for start := d.pos; d.pos < len(d.src); {
		c := d.src[d.pos]
		switch {
		case c == '"':
			out = append(out, d.src[start:d.pos]...)
			d.pos++
			*p = string(out)
			return true
		case c == '\\':
			out = append(out, d.src[start:d.pos]...)
			d.pos++
			r, ok := d.escape()
			if !ok {
				return false
			}
			out = utf8.AppendRune(out, r)
			start = d.pos
		case c < 0x20 || c == '<' || c == '>' || c == '&':
			return false
		case c < utf8.RuneSelf:
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.src[d.pos:])
			if r == utf8.RuneError && size == 1 || r == lineSep || r == paraSep {
				return false
			}
			d.pos += size
		}
	}
	return false
}

// The separators encoding/json escapes outside ASCII.
const lineSep, paraSep = 0x2028, 0x2029

// shortEscapes maps the escape letters encoding/json writes to the bytes
// they stand for.
var shortEscapes = [256]byte{'"': '"', '\\': '\\', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// escape consumes the body of one escape sequence (after the backslash)
// and returns the rune it stands for.
func (d *decoder) escape() (rune, bool) {
	if d.pos >= len(d.src) {
		return 0, false
	}
	if c := shortEscapes[d.src[d.pos]]; c != 0 {
		d.pos++
		return rune(c), true
	}
	if !d.lit("u") || len(d.src)-d.pos < 4 {
		return 0, false
	}
	var r rune
	for _, c := range d.src[d.pos : d.pos+4] {
		switch {
		case '0' <= c && c <= '9':
			r = r<<4 | rune(c-'0')
		case 'a' <= c && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		default:
			return 0, false
		}
	}
	d.pos += 4
	switch {
	case r < 0x20:
		return r, r != '\b' && r != '\f' && r != '\n' && r != '\r' && r != '\t'
	case r == '<', r == '>', r == '&', r == lineSep, r == paraSep, r == utf8.RuneError:
		return r, true
	}
	return 0, false
}

// Merge appends o's runs to a (shard aggregation). Derived statistics of
// the merged aggregate are independent of how runs were sharded:
// associativity is exact, and commutativity holds up to float64
// summation order. No sweep shards its runs yet: TestAggMergeAssociative,
// TestAggMergeCommutativeDerived and TestAggMergeEdgeCases pin that
// contract for the sharded sweep the roadmap parks.
func (a *Agg) Merge(o *Agg) {
	if o == nil {
		return
	}
	a.runs = append(a.runs, o.runs...)
	a.failed = append(a.failed, o.failed...)
}
