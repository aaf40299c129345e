package failure

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"pckpt/internal/metrics"
)

// ReplayEvent is one recorded entry of a failure trace. For a failure, T
// is the strike time and Lead the announcement margin (zero =
// unpredicted); for a spurious prediction, T is when the bogus
// prediction fires and Lead how far ahead the non-failure was predicted.
// The JSON keys are the trace file's (scenario.Trace); a zero lead,
// sequence ID or spurious flag is left out.
type ReplayEvent struct {
	// T is seconds since the trace window's start.
	T float64 `json:"t"`
	// Node is the trace-local node index (folded onto the job's nodes
	// modulo the job size when the trace was recorded on a different
	// cluster span).
	Node int `json:"node"`
	// Lead is the prediction lead time in seconds.
	Lead float64 `json:"lead,omitempty"`
	// Seq is the failure-sequence ID the event was mined from (0 when
	// unknown).
	Seq int `json:"seq,omitempty"`
	// Spurious marks a false-positive prediction with no failure behind
	// it.
	Spurious bool `json:"spurious,omitempty"`
}

// Replay is a recorded failure trace the simulation replays instead of
// drawing parametric Weibull arrivals — mined from system logs by
// internal/deshlog, or hand-written. The trace covers HorizonSeconds and
// wraps around: a run longer than the window sees the same failure
// pattern again, shifted by one horizon, which keeps the stream infinite
// and every run deterministic with no random draws at all. Its JSON form,
// with a format version, is a trace file (scenario.Trace).
//
// A Replay is immutable once built: streams over it share it freely
// across concurrent runs.
type Replay struct {
	// Name labels the trace (provenance; participates in the digest).
	Name string `json:"name"`
	// Nodes is the node span the trace was recorded over.
	Nodes int `json:"nodes"`
	// HorizonSeconds is the trace window length; events wrap modulo it.
	HorizonSeconds float64 `json:"horizon_seconds"`
	// Events is the recorded sequence, ordered by T.
	Events []ReplayEvent `json:"events"`
}

// Validate reports a malformed trace, or nil. Beyond field ranges it
// requires time order (canonical form, and what lets the stream emit
// cycles without sorting the shared slice) and at least one real failure
// (a failure-free trace would loop the simulation forever and admits no
// rate estimate).
func (r *Replay) Validate() error {
	if r == nil {
		return fmt.Errorf("failure: nil replay trace")
	}
	if r.Nodes <= 0 {
		return fmt.Errorf("failure: replay trace with non-positive node span")
	}
	if !(r.HorizonSeconds > 0) || math.IsInf(r.HorizonSeconds, 0) {
		return fmt.Errorf("failure: replay horizon %v not a positive finite duration", r.HorizonSeconds)
	}
	if len(r.Events) == 0 {
		return fmt.Errorf("failure: replay trace with no events")
	}
	failures := 0
	last := math.Inf(-1)
	for i, ev := range r.Events {
		switch {
		case math.IsNaN(ev.T) || ev.T < 0 || ev.T > r.HorizonSeconds:
			return fmt.Errorf("failure: replay event %d at t=%v outside [0, %v]", i, ev.T, r.HorizonSeconds)
		case ev.T < last:
			return fmt.Errorf("failure: replay event %d out of time order (t=%v after %v)", i, ev.T, last)
		case ev.Node < 0 || ev.Node >= r.Nodes:
			return fmt.Errorf("failure: replay event %d on node %d outside the trace's %d-node span", i, ev.Node, r.Nodes)
		case math.IsNaN(ev.Lead) || ev.Lead < 0 || math.IsInf(ev.Lead, 0):
			return fmt.Errorf("failure: replay event %d with lead %v not a finite non-negative duration", i, ev.Lead)
		case !ev.Spurious && ev.Lead > ev.T:
			return fmt.Errorf("failure: replay event %d predicted %vs ahead of t=%v, before the trace window", i, ev.Lead, ev.T)
		case ev.Seq < 0:
			return fmt.Errorf("failure: replay event %d with negative sequence ID", i)
		}
		last = ev.T
		if !ev.Spurious {
			failures++
		}
	}
	if failures == 0 {
		return fmt.Errorf("failure: replay trace has no failures (only spurious predictions)")
	}
	return nil
}

// FailureCount returns the number of real failures per trace cycle.
func (r *Replay) FailureCount() int {
	n := 0
	for _, ev := range r.Events {
		if !ev.Spurious {
			n++
		}
	}
	return n
}

// SyntheticSystem derives the failure.System a replayed job should report
// as its platform distribution: an exponential (shape 1) fit whose
// job-wide rate on jobNodes nodes equals the trace's empirical failure
// rate. The OCI refresh and Eq. (1)/(2) priors then track the replayed
// reality instead of an unrelated Table III row.
func (r *Replay) SyntheticSystem(jobNodes int) System {
	if jobNodes <= 0 {
		panic("failure: SyntheticSystem with non-positive job size")
	}
	name := r.Name
	if name == "" {
		name = "trace"
	}
	return System{
		Name:       "replay:" + name,
		Shape:      1,
		ScaleHours: r.HorizonSeconds / (3600 * float64(r.FailureCount())),
		Nodes:      jobNodes,
	}
}

// LeadModel fits a lead-time mixture to the trace's predicted failures,
// grouped by mined sequence ID — the same construction
// internal/deshlog applies to freshly mined chains, so σ and θ reflect
// the replayed leads rather than the paper's parametric Fig. 2a model.
// Returns nil when the trace carries no predicted failures.
func (r *Replay) LeadModel() *LeadTimeModel {
	bySeq := make(map[int][]float64)
	for _, ev := range r.Events {
		if !ev.Spurious && ev.Lead > 0 {
			bySeq[ev.Seq] = append(bySeq[ev.Seq], ev.Lead)
		}
	}
	if len(bySeq) == 0 {
		return nil
	}
	ids := make([]int, 0, len(bySeq))
	for id := range bySeq {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	seqs := make([]Sequence, 0, len(ids))
	for _, id := range ids {
		leads := bySeq[id]
		var sum float64
		for _, l := range leads {
			sum += l
		}
		mean := sum / float64(len(leads))
		// Floor the CV so single-sample sequences still yield a
		// well-defined log-normal (mirrors deshlog.ToLeadModel).
		cv := 0.05
		if len(leads) > 1 {
			var ss float64
			for _, l := range leads {
				d := l - mean
				ss += d * d
			}
			if got := math.Sqrt(ss/float64(len(leads)-1)) / mean; got > cv {
				cv = got
			}
		}
		seqs = append(seqs, Sequence{ID: id, Weight: float64(len(leads)), MeanLeadSec: mean, CV: cv})
	}
	return NewLeadTimeModel(seqs)
}

// Digest returns a stable content address of the trace: a versioned
// SHA-256 over the canonical event rendering. Two traces that replay
// identically digest identically, so the digest is what represents the
// trace inside platform.Config.CanonicalString (and therefore inside
// every runcache key).
func (r *Replay) Digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replay/v1\n%s|%d|%s\n", r.Name, r.Nodes, strconv.FormatFloat(r.HorizonSeconds, 'g', -1, 64))
	for _, ev := range r.Events {
		fmt.Fprintf(&b, "%s|%d|%s|%d|%t\n",
			strconv.FormatFloat(ev.T, 'g', -1, 64), ev.Node,
			strconv.FormatFloat(ev.Lead, 'g', -1, 64), ev.Seq, ev.Spurious)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// ReplayStream replays a Replay as an infinite EventSource: each trace
// event expands into the same prediction/failure pairs the parametric
// Stream emits, cycle after cycle, with nothing random — a replayed run
// is a pure function of the trace and is bit-identical across worker
// counts by construction.
type ReplayStream struct {
	re       *Replay
	jobNodes int
	cycle    int
	idx      int
	buf      []Event
	nextID   int64
	met      streamMeters
}

// NewReplayStream builds a stream over re for a job on jobNodes nodes.
// It panics on an invalid trace (construction is configuration-time).
// Plan.Start restarts a recycled one; TestReplayStream* and deshlog's
// TestExportTraceRoundTrip build bare replay streams with it.
func NewReplayStream(re *Replay, jobNodes int, reg *metrics.Registry) *ReplayStream {
	if err := re.Validate(); err != nil {
		panic(err)
	}
	if jobNodes <= 0 {
		panic("failure: replay stream with non-positive job size")
	}
	s := new(ReplayStream)
	s.reset(re, jobNodes, reg)
	return s
}

// reset restarts s at the first cycle of re, keeping its event buffer.
func (s *ReplayStream) reset(re *Replay, jobNodes int, reg *metrics.Registry) {
	s.re, s.jobNodes = re, jobNodes
	s.cycle, s.idx, s.nextID = 0, 0, 0
	s.buf = s.buf[:0]
	s.met = newStreamMeters(reg)
}

// expandCycle materialises the next trace cycle into the emission buffer.
// Every event time of cycle k lies in [k·H, (k+1)·H] (Validate bounds T
// and forces Lead ≤ T), so cycles emit in order with no cross-cycle
// lookahead.
func (s *ReplayStream) expandCycle() {
	offset := float64(s.cycle) * s.re.HorizonSeconds
	s.cycle++
	s.buf = s.buf[:0]
	s.idx = 0
	for _, ev := range s.re.Events {
		s.nextID++
		node := ev.Node % s.jobNodes
		lead := ev.Lead
		if lead > LeadCap {
			lead = LeadCap // the parametric stream caps leads identically
		}
		t := offset + ev.T
		switch {
		case ev.Spurious:
			s.buf = append(s.buf, Event{Kind: KindSpurious, Time: t, Node: node, Lead: lead, FailTime: t + lead, Seq: ev.Seq, ID: s.nextID})
		case lead > 0:
			s.buf = append(s.buf,
				Event{Kind: KindPrediction, Time: t - lead, Node: node, Lead: lead, FailTime: t, Seq: ev.Seq, ID: s.nextID},
				Event{Kind: KindFailure, Time: t, Node: node, Lead: lead, FailTime: t, Seq: ev.Seq, ID: s.nextID})
		default:
			s.buf = append(s.buf, Event{Kind: KindFailure, Time: t, Node: node, FailTime: t, ID: s.nextID})
		}
	}
	// Stable sort: ties keep trace order, then prediction before failure
	// (each pair was appended in that order), so the interleave is
	// deterministic with no dependence on sort internals.
	slices.SortStableFunc(s.buf, byTime)
}

// byTime orders events by time; a stable sort with it keeps ties in
// append order.
func byTime(a, b Event) int { return cmp.Compare(a.Time, b.Time) }

// Next returns the next event in time order. The stream is infinite; the
// caller stops consuming when its simulation ends.
func (s *ReplayStream) Next() Event {
	if s.idx >= len(s.buf) {
		s.expandCycle()
	}
	ev := s.buf[s.idx]
	s.idx++
	s.met.account(ev)
	return ev
}

var _ EventSource = (*ReplayStream)(nil)
var _ EventSource = (*Stream)(nil)
