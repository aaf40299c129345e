// Package runcache is a content-addressed, on-disk store for simulated
// experiment configurations: the resumable layer under cmd/experiments.
//
// Every (experiment, configuration) pair the sweep simulates is keyed by
// a canonical hash of the experiment ID, the run parameters (minus the
// worker count, which a determinism test guarantees cannot change
// results), the platform configuration's canonical rendering, the policy
// ID, and a code fingerprint derived from the module build info. The
// stored value is the full serialized stats.Agg (plus the merged metrics
// snapshot when the run was metered), so a cache hit reproduces the
// original simulation's output exactly — including every derived table
// cell — without executing a single run.
//
// On disk an entry is, byte for byte, the JSON object earlier builds
// wrote through encoding/json, so existing stores stay valid; but
// neither side goes through reflection. Put renders the key once and
// builds the whole entry in one buffer around stats.(*Agg).AppendJSON;
// Get matches the entry's head against that one rendering and decodes
// the aggregate in place with stats.DecodeAggJSON, which accepts that
// exact form only. encoding/json remains for the metrics snapshot and
// the rare failed-run ledger.
//
// The store is crash- and interrupt-safe by construction: each blob is
// written atomically (temp file + rename) the moment its configuration
// completes, and reads go straight to the blob file, so a sweep killed
// mid-flight leaves a valid store holding exactly the completed prefix.
// An append-only index (index.jsonl, one JSON line per store) records
// what was cached and when for humans and tooling; blobs stay
// authoritative, so a torn index line is never trusted for reads.
// Corrupt or truncated blobs are detected via a payload checksum and
// the strict decode, evicted, and transparently recomputed by the
// caller; so is a blob in any form other than the one Put writes.
package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"pckpt/internal/metrics"
	"pckpt/internal/stats"
)

// Key identifies one simulated configuration. All fields participate in
// the content address; see Canonical for the exact layout.
type Key struct {
	// Experiment is the registry ID namespace ("fig6a", "crossval", ...).
	Experiment string
	// Label is the experiment's per-configuration label (app, system,
	// lead scale, ... — whatever the experiment used to derive the
	// configuration seed).
	Label string
	// Policy is the C/R policy ID ("B", "P2", ...).
	Policy string
	// Platform is platform.Config.CanonicalString() of the configuration.
	Platform string
	// Runs and Seed are the effective run count and base seed. The
	// worker count is deliberately absent: run aggregation is seed-
	// ordered, so results are worker-count independent (guarded by
	// TestWorkersDeterminism in internal/experiments).
	Runs int
	Seed uint64
	// Fingerprint ties the entry to the code that produced it (see
	// Fingerprint()).
	Fingerprint string
}

// Canonical renders the key as versioned, newline-delimited text — the
// preimage of Hash. The multi-line Platform rendering sits last so the
// fixed-position fields above it stay self-delimiting. The store renders
// through appendCanonical; the codec tests (TestPutMatchesEncodingJSON,
// TestGetRejectsEveryCorruption) use Canonical to build the blobs they
// compare with the store's.
func (k Key) Canonical() string { return string(k.appendCanonical(nil)) }

// appendCanonical appends the Canonical text to dst.
func (k Key) appendCanonical(dst []byte) []byte {
	// 128 bytes hold the fixed text and both numbers.
	dst = slices.Grow(dst, 128+len(k.Experiment)+len(k.Label)+len(k.Policy)+len(k.Fingerprint)+len(k.Platform))
	dst = append(dst, "runcache/v1\nexperiment="...)
	dst = append(dst, k.Experiment...)
	dst = append(dst, "\nlabel="...)
	dst = append(dst, k.Label...)
	dst = append(dst, "\npolicy="...)
	dst = append(dst, k.Policy...)
	dst = append(dst, "\nruns="...)
	dst = strconv.AppendInt(dst, int64(k.Runs), 10)
	dst = append(dst, "\nseed="...)
	dst = strconv.AppendUint(dst, k.Seed, 10)
	dst = append(dst, "\nfingerprint="...)
	dst = append(dst, k.Fingerprint...)
	dst = append(dst, "\nplatform:\n"...)
	return append(dst, k.Platform...)
}

// Hash returns the content address: hex SHA-256 of the canonical text.
// The store hashes the text it already rendered (hashCanonical);
// TestKeyHashStableAndSensitive and the corruption tests use Hash to
// find a key's blob on disk.
func (k Key) Hash() string { return hashCanonical(k.appendCanonical(nil)) }

// hashCanonical is Hash of an already rendered canonical text.
func hashCanonical(canon []byte) string {
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}

// Stats counts cache traffic. Hits/Misses/Puts/Evictions are cumulative
// over a Store's lifetime (one process; the on-disk store itself is
// shared across processes).
type Stats struct {
	Hits, Misses, Puts, Evictions int
}

// add folds o into s.
func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Puts += o.Puts
	s.Evictions += o.Evictions
}

// Store is an opened cache directory. Safe for concurrent use.
type Store struct {
	dir string

	mu     sync.Mutex
	total  Stats
	perExp map[string]Stats
}

// Open creates (if needed) and opens a cache directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runcache: empty cache directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	return &Store{dir: dir, perExp: make(map[string]Stats)}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// An entry on disk is the JSON object
//
//	{"key":KEY,"check":"CHECK","agg":AGG,"metrics":METRICS}
//
// with KEY the full canonical text as a JSON string (collision and
// corruption guard), CHECK the hex SHA-256 of the AGG bytes, a newline,
// and the METRICS bytes, AGG the aggregate in stats' wire form, and
// METRICS the metrics snapshot, left out with its key when the entry has
// none. These are the bytes encoding/json writes for such an object, so
// entries written by earlier builds stay readable.
const (
	checkField   = `,"check":"`
	aggField     = `","agg":`
	metricsField = `,"metrics":`

	// checkLen is the length of CHECK: hex SHA-256.
	checkLen = 2 * sha256.Size
	// runBytes presizes Put's buffer: a run of the widest registered
	// experiment, fault counters set, renders in about 320 bytes, and a
	// healthy run in about 240.
	runBytes = 320
)

// appendHead appends an entry's bytes up to its checksum.
func appendHead(dst, canon []byte) []byte {
	// Room for the escaped key and the fields around it.
	dst = slices.Grow(dst, 2*len(canon)+32)
	dst = append(dst, `{"key":`...)
	dst = appendString(dst, canon)
	return append(dst, checkField...)
}

// jsonEscapes maps the ASCII bytes encoding/json writes as a
// backslash and one letter to that letter.
var jsonEscapes = [utf8.RuneSelf]byte{'"': '"', '\\': '\\', '\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}

// appendString appends s as the JSON string encoding/json writes for it:
// <, > and & and the control bytes without a short escape as six-byte
// \u escapes, each invalid UTF-8 byte as the \u escape of U+FFFD, and
// the line and paragraph separators U+2028 and U+2029 as \u escapes.
func appendString(dst, s []byte) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && jsonEscapes[c] == 0 && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			if e := jsonEscapes[c]; e != 0 {
				dst = append(dst, '\\', e)
			} else {
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// payloadCheck computes the entry checksum over the serialized payloads.
func payloadCheck(agg, met []byte) (sum [sha256.Size]byte) {
	h := sha256.New()
	h.Write(agg)
	h.Write([]byte{'\n'})
	h.Write(met)
	h.Sum(sum[:0])
	return sum
}

// path returns the blob path for a hash, sharded by its first byte.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, "objects", hash[:2], hash+".json")
}

// Get looks a key up. With needMetrics set, an entry stored without a
// metrics snapshot counts as a miss (it cannot serve a metered sweep);
// the caller's recompute-and-Put then upgrades the entry in place.
// Corrupt entries — a canonical-key mismatch, a checksum mismatch, or
// any byte outside the form Put writes — are evicted from disk and
// reported as misses, never trusted.
func (s *Store) Get(k Key, needMetrics bool) (*stats.Agg, *metrics.Snapshot, bool) {
	canon := k.appendCanonical(nil)
	hash := hashCanonical(canon)
	data, err := os.ReadFile(s.path(hash))
	if err != nil {
		s.record(k.Experiment, Stats{Misses: 1})
		return nil, nil, false
	}
	agg, met, ok := decodeEntry(data, canon, k.Runs)
	if !ok {
		s.evict(k, hash)
		return nil, nil, false
	}
	if needMetrics && len(met) == 0 {
		s.record(k.Experiment, Stats{Misses: 1})
		return nil, nil, false
	}
	var snap *metrics.Snapshot
	if len(met) > 0 {
		snap = &metrics.Snapshot{}
		if err := json.Unmarshal(met, snap); err != nil {
			s.evict(k, hash)
			return nil, nil, false
		}
	}
	s.record(k.Experiment, Stats{Hits: 1})
	return agg, snap, true
}

// decodeEntry checks an entry against the key's canonical text and its
// payload checksum and decodes the aggregate, presized for runs runs.
// met is the raw metrics snapshot, empty when the entry has none.
func decodeEntry(data, canon []byte, runs int) (agg *stats.Agg, met []byte, ok bool) {
	rest, ok := bytes.CutPrefix(data, appendHead(nil, canon))
	if !ok || len(rest) < checkLen {
		return nil, nil, false
	}
	check, rest := rest[:checkLen], rest[checkLen:]
	if rest, ok = bytes.CutPrefix(rest, []byte(aggField)); !ok {
		return nil, nil, false
	}
	agg, n, err := stats.DecodeAggJSON(rest, runs)
	if err != nil {
		return nil, nil, false
	}
	aggJSON, rest := rest[:n], rest[n:]
	if m, found := bytes.CutPrefix(rest, []byte(metricsField)); found {
		met, ok = bytes.CutSuffix(m, []byte("}"))
		ok = ok && len(met) > 0
	} else {
		ok = string(rest) == "}"
	}
	var want [checkLen]byte
	sum := payloadCheck(aggJSON, met)
	hex.Encode(want[:], sum[:])
	if !ok || !bytes.Equal(check, want[:]) {
		return nil, nil, false
	}
	return agg, met, true
}

// Put stores one completed configuration. The entry is rendered in one
// buffer, its checksum filled in last, and lands atomically (temp file
// + rename), so a concurrent or interrupted reader never observes a
// torn entry; an existing entry for the key is replaced.
func (s *Store) Put(k Key, agg *stats.Agg, snap *metrics.Snapshot) error {
	canon := k.appendCanonical(nil)
	data := appendHead(make([]byte, 0, 2*len(canon)+runBytes*(agg.N()+1)), canon)
	checkAt := len(data)
	data = append(data, make([]byte, checkLen)...)
	data = append(data, aggField...)
	aggAt := len(data)
	data, err := agg.AppendJSON(data)
	if err != nil {
		return fmt.Errorf("runcache: encode agg: %w", err)
	}
	aggJSON := data[aggAt:]
	var met []byte
	if snap != nil && !snap.Empty() {
		if met, err = json.Marshal(snap); err != nil {
			return fmt.Errorf("runcache: encode metrics: %w", err)
		}
	}
	sum := payloadCheck(aggJSON, met)
	hex.Encode(data[checkAt:], sum[:])
	if len(met) > 0 {
		data = append(append(data, metricsField...), met...)
	}
	data = append(data, '}')
	hash := hashCanonical(canon)
	path := s.path(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	s.record(k.Experiment, Stats{Puts: 1})
	s.appendIndex(k, hash, len(data))
	return nil
}

// indexEntry is one line of index.jsonl.
type indexEntry struct {
	Hash       string `json:"hash"`
	Experiment string `json:"experiment"`
	Label      string `json:"label"`
	Policy     string `json:"policy"`
	Runs       int    `json:"runs"`
	Seed       uint64 `json:"seed"`
	Bytes      int    `json:"bytes"`
	Created    string `json:"created"`
}

// appendIndex records a Put in the human-readable index. Best-effort:
// the index is informational, blobs are authoritative, so index I/O
// errors are swallowed rather than failing the sweep.
func (s *Store) appendIndex(k Key, hash string, size int) {
	line, err := json.Marshal(indexEntry{
		Hash:       hash,
		Experiment: k.Experiment,
		Label:      k.Label,
		Policy:     k.Policy,
		Runs:       k.Runs,
		Seed:       k.Seed,
		Bytes:      size,
		Created:    time.Now().UTC().Format(time.RFC3339),
	})
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(s.dir, "index.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	f.Write(append(line, '\n'))
}

// evict removes a corrupt entry and accounts it as an eviction plus the
// miss the caller is about to act on.
func (s *Store) evict(k Key, hash string) {
	os.Remove(s.path(hash))
	s.record(k.Experiment, Stats{Misses: 1, Evictions: 1})
}

// record folds traffic into the total and per-experiment accounting.
func (s *Store) record(experiment string, d Stats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total.add(d)
	pe := s.perExp[experiment]
	pe.add(d)
	s.perExp[experiment] = pe
}

// Totals returns the cumulative traffic counters.
func (s *Store) Totals() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// PerExperiment returns a copy of the per-experiment traffic counters.
func (s *Store) PerExperiment() map[string]Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Stats, len(s.perExp))
	for k, v := range s.perExp {
		out[k] = v
	}
	return out
}

// Entries counts the blob files currently on disk (across every process
// that ever wrote to the directory).
func (s *Store) Entries() int {
	n := 0
	filepath.WalkDir(filepath.Join(s.dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			n++
		}
		return nil
	})
	return n
}
