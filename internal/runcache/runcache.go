// Package runcache is a content-addressed, on-disk store for simulated
// experiment configurations: the resumable layer under cmd/experiments.
//
// Every (experiment, configuration) pair the sweep simulates is keyed by
// a canonical hash of the experiment ID, the run parameters (minus the
// worker count, which a determinism test guarantees cannot change
// results), the platform configuration's canonical rendering, the policy
// ID, and a code fingerprint derived from the module build info. The
// stored value is the full stats.Agg run list and failed-run ledger
// (plus the merged metrics snapshot when the run was metered), so a
// cache hit reproduces the original simulation's output exactly —
// including every derived table cell — without executing a single run.
//
// An entry's binary layout is this package's alone (see appendEntry): a
// format tag, the key's full canonical text, a SHA-256 of the payload,
// and the payload, which holds every run field as its raw 64-bit word,
// so the round trip is lossless bit for bit, NaN payloads included. Put
// renders the key once and the whole entry in one pooled buffer; Get
// reads the entry into pooled scratch and accepts exactly the bytes Put
// would write for the key.
//
// The store is crash- and interrupt-safe by construction: each blob is
// written atomically (temp file + rename) the moment its configuration
// completes, and reads go straight to the blob file, so a sweep killed
// mid-flight leaves a valid store holding exactly the completed
// configurations. An append-only index (index.jsonl, one JSON line per
// store, in completion order) records what was cached and when for
// humans and tooling; blobs stay authoritative, so a torn index line is
// never trusted for reads.
// Corrupt or truncated blobs are detected via the payload checksum and
// the strict read, evicted, and transparently recomputed by the caller;
// so is a blob in any other form, such as an earlier build's JSON entry
// at the same path.
package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"pckpt/internal/metrics"
	"pckpt/internal/stats"
)

// Key identifies one simulated configuration. All fields participate in
// the content address; see appendCanonical for the exact layout.
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

// appendCanonical appends the key's canonical text to dst: versioned,
// newline-delimited text, the preimage of Hash, which every entry also
// carries in full. The multi-line Platform rendering sits last so the
// fixed-position fields above it stay self-delimiting.
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

// An entry on disk is
//
//	entry   = tag, len(key), key, SHA-256(payload), payload
//	payload = runs, failed, runs × run, failed × ledger, metrics
//
// tag is entryTag and key the key's canonical text. Every count and
// length is one little-endian 64-bit word. A run is its floats as IEEE
// bits and its counters as two's complement words, in runFields order,
// then one truncation byte, 0 or 1; a ledger entry is its seed and its
// two strings, each a length and its bytes. metrics is the snapshot's
// JSON (the form -metrics-out writes) up to the end of the entry, empty
// when the entry has none. One word width keeps every bounds check a
// comparison.
const (
	// entryTag opens every entry and versions its layout; the key text's
	// own header versions the key. The JSON entries of earlier builds
	// were the first layout.
	entryTag = "runcache-entry/v2\n"

	wordLen = 8
	// runFloats and runCounts size a run's fields (runFields).
	runFloats, runCounts = 4, 13
	// runLen is one run's bytes: its words and its truncation byte.
	runLen = (runFloats+runCounts)*wordLen + 1
	// ledgerLen is the least a ledger entry takes: a seed and two empty
	// strings.
	ledgerLen = 3 * wordLen
)

// runFields returns pointers to r's floats and counters in entry order.
// TestCodecFieldCoverage fails on a RunResult field that has no place
// here or in the truncation byte.
func runFields(r *stats.RunResult) ([runFloats]*float64, [runCounts]*int) {
	return [...]*float64{&r.Checkpoint, &r.Recompute, &r.Recovery, &r.WallSeconds},
		[...]*int{&r.Failures, &r.Predicted, &r.Mitigated, &r.Avoided,
			&r.Checkpoints, &r.ProactiveCkpts, &r.Migrations, &r.AbortedMigrations,
			&r.BBWriteFailures, &r.PFSWriteFailures, &r.CorruptRestarts,
			&r.RestartRetries, &r.Cascades}
}

// appendEntry appends the entry of agg and the metrics JSON met under
// the canonical key text canon, its checksum filled in last.
func appendEntry(dst, canon []byte, agg *stats.Agg, met []byte) []byte {
	runs, failed := agg.Runs(), agg.Failed()
	dst = slices.Grow(dst, len(entryTag)+wordLen+len(canon)+sha256.Size+2*wordLen+runLen*len(runs)+len(met))
	dst = append(dst, entryTag...)
	dst = append(appendWord(dst, uint64(len(canon))), canon...)
	check := len(dst)
	dst = append(dst, make([]byte, sha256.Size)...)
	payload := len(dst)
	dst = appendWord(dst, uint64(len(runs)))
	dst = appendWord(dst, uint64(len(failed)))
	for i := range runs {
		floats, counts := runFields(&runs[i])
		for _, f := range floats {
			dst = appendWord(dst, math.Float64bits(*f))
		}
		for _, n := range counts {
			dst = appendWord(dst, uint64(*n))
		}
		var truncated byte
		if runs[i].Truncated {
			truncated = 1
		}
		dst = append(dst, truncated)
	}
	for _, f := range failed {
		dst = appendWord(dst, f.Seed)
		dst = appendText(dst, f.Config)
		dst = appendText(dst, f.Err)
	}
	dst = append(dst, met...)
	sum := sha256.Sum256(dst[payload:])
	copy(dst[check:], sum[:])
	return dst
}

// appendWord appends w as one little-endian word.
func appendWord(dst []byte, w uint64) []byte { return binary.LittleEndian.AppendUint64(dst, w) }

// word reads the word at the head of p.
func word(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }

// appendText appends s with its length.
func appendText(dst []byte, s string) []byte {
	return append(appendWord(dst, uint64(len(s))), s...)
}

// decodeEntry reads data back if it is an entry Put writes under the
// canonical key text canon for a key of runs runs: the tag, the key text
// and the checksum must match, and the payload must decode whole with
// runs completed and failed runs in all. met is the metrics JSON, empty
// when the entry has none; it aliases data.
func decodeEntry(data, canon []byte, runs int) (agg *stats.Agg, met []byte, ok bool) {
	rest, ok := bytes.CutPrefix(data, []byte(entryTag))
	if !ok || len(rest) < wordLen+len(canon)+sha256.Size || word(rest) != uint64(len(canon)) {
		return nil, nil, false
	}
	rest = rest[wordLen:]
	key, check, payload := rest[:len(canon)], rest[len(canon):len(canon)+sha256.Size], rest[len(canon)+sha256.Size:]
	if !bytes.Equal(key, canon) || sha256.Sum256(payload) != [sha256.Size]byte(check) {
		return nil, nil, false
	}
	return decodePayload(payload, runs)
}

// decodePayload decodes a payload of runs runs in all. Each count is
// held to the bytes left before anything is allocated for it, so a
// corrupt count allocates nothing.
func decodePayload(p []byte, runs int) (*stats.Agg, []byte, bool) {
	if len(p) < 2*wordLen {
		return nil, nil, false
	}
	nRuns, nFailed := word(p), word(p[wordLen:])
	p = p[2*wordLen:]
	if nRuns > uint64(len(p)/runLen) || nFailed > uint64((len(p)-int(nRuns)*runLen)/ledgerLen) ||
		nRuns+nFailed != uint64(runs) {
		return nil, nil, false
	}
	completed := make([]stats.RunResult, nRuns)
	for i := range completed {
		floats, counts := runFields(&completed[i])
		for j, f := range floats {
			*f = math.Float64frombits(word(p[j*wordLen:]))
		}
		for j, n := range counts {
			*n = int(word(p[(runFloats+j)*wordLen:]))
		}
		if p[runLen-1] > 1 {
			return nil, nil, false
		}
		completed[i].Truncated = p[runLen-1] == 1
		p = p[runLen:]
	}
	failed := make([]stats.FailedRun, nFailed)
	for i := range failed {
		f := &failed[i]
		var ok bool
		if f.Seed, p, ok = cutWord(p); !ok {
			return nil, nil, false
		}
		if f.Config, p, ok = cutText(p); !ok {
			return nil, nil, false
		}
		if f.Err, p, ok = cutText(p); !ok {
			return nil, nil, false
		}
	}
	return stats.NewAgg(completed, failed), p, true
}

// cutWord cuts a word from the head of p.
func cutWord(p []byte) (uint64, []byte, bool) {
	if len(p) < wordLen {
		return 0, nil, false
	}
	return word(p), p[wordLen:], true
}

// cutText cuts a string and its length from the head of p.
func cutText(p []byte) (string, []byte, bool) {
	n, p, ok := cutWord(p)
	if !ok || n > uint64(len(p)) {
		return "", nil, false
	}
	return string(p[:n]), p[n:], true
}

// path returns the blob path for a hash, sharded by its first byte. The
// .json suffix is older than the binary layout; Entries and the
// benchmark's traced replay find blobs by it.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, "objects", hash[:2], hash+".json")
}

// Get looks a key up. With needMetrics set, an entry stored without a
// metrics snapshot counts as a miss (it cannot serve a metered sweep);
// the caller's recompute-and-Put then upgrades the entry in place.
// Corrupt entries — a canonical-key mismatch, a checksum mismatch, or
// any byte Put would not have written — are evicted from disk and
// reported as misses, never trusted. The entry is read into pooled
// scratch, taken only once the entry's file is open, and nothing Get
// returns aliases it.
func (s *Store) Get(k Key, needMetrics bool) (*stats.Agg, *metrics.Snapshot, bool) {
	canon := k.appendCanonical(nil)
	hash := hashCanonical(canon)
	f, err := os.Open(s.path(hash))
	if err != nil {
		s.record(k.Experiment, Stats{Misses: 1})
		return nil, nil, false
	}
	b := takeScratch()
	defer scratch.Put(b)
	b.data, err = readAll(f, b.data[:0])
	f.Close()
	if err != nil {
		s.record(k.Experiment, Stats{Misses: 1})
		return nil, nil, false
	}
	agg, met, ok := decodeEntry(b.data, canon, k.Runs)
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
		// Put writes a snapshot only when it holds a series.
		snap = &metrics.Snapshot{}
		if err := json.Unmarshal(met, snap); err != nil || snap.Empty() {
			s.evict(k, hash)
			return nil, nil, false
		}
	}
	s.record(k.Experiment, Stats{Hits: 1})
	return agg, snap, true
}

// entryScratch is the buffers one Get or Put renders and reads an entry
// in. The store pools them across calls and goroutines, so a warm lookup
// reads into a buffer an earlier one grew.
type entryScratch struct {
	canon, data []byte
}

// scratch pools entryScratch values; the first use of each allocates it.
var scratch sync.Pool

// takeScratch takes a pooled scratch, or makes an empty one.
func takeScratch() *entryScratch {
	if b, ok := scratch.Get().(*entryScratch); ok {
		return b
	}
	return new(entryScratch)
}

// minRead is the least room readAll reads into: a 200-run entry is
// about 28 KB, so a fresh buffer takes it in one read.
const minRead = 64 << 10

// readAll appends f's remaining bytes to dst, growing it only when the
// file outruns its capacity.
func readAll(f *os.File, dst []byte) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, max(cap(dst), minRead))
		}
		n, err := f.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// Put stores one completed configuration. The entry is rendered in one
// pooled buffer and lands atomically (temp file + rename), so a
// concurrent or interrupted reader never observes a torn entry; an
// existing entry for the key is replaced.
func (s *Store) Put(k Key, agg *stats.Agg, snap *metrics.Snapshot) error {
	var met []byte
	if snap != nil && !snap.Empty() {
		var err error
		if met, err = json.Marshal(snap); err != nil {
			return fmt.Errorf("runcache: encode metrics: %w", err)
		}
	}
	b := takeScratch()
	defer scratch.Put(b)
	b.canon = k.appendCanonical(b.canon[:0])
	b.data = appendEntry(b.data[:0], b.canon, agg, met)
	hash := hashCanonical(b.canon)
	path := s.path(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	if _, err := tmp.Write(b.data); err != nil {
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
	s.appendIndex(k, hash, len(b.data))
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
