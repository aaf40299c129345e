package failure

import (
	"fmt"
	"math"

	"pckpt/internal/metrics"
	"pckpt/internal/queue"
	"pckpt/internal/rng"
)

// Kind discriminates the events a failure stream produces.
type Kind uint8

const (
	// KindPrediction announces a coming failure: the predictor fired with
	// Lead seconds to go. The matching KindFailure event follows at
	// FailTime unless the run ends first.
	KindPrediction Kind = iota
	// KindFailure is a failure striking Node. Lead carries the lead time
	// it was announced with (zero when the predictor missed it).
	KindFailure
	// KindSpurious is a false-positive prediction: the predictor fired
	// but no failure follows.
	KindSpurious
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPrediction:
		return "prediction"
	case KindFailure:
		return "failure"
	case KindSpurious:
		return "spurious"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one entry of the merged failure/prediction stream, ordered by
// Time. A predicted failure produces two events sharing an ID: the
// prediction first, then the failure.
type Event struct {
	Kind Kind
	// Time is when the event occurs in job-relative seconds.
	Time float64
	// Node is the job-local index of the affected node.
	Node int
	// Lead is the prediction lead time in seconds (zero for unpredicted
	// failures).
	Lead float64
	// FailTime is when the (possibly predicted) failure strikes. For
	// spurious predictions it is the time the bogus failure was predicted
	// for. For unpredicted failures it equals Time.
	FailTime float64
	// Seq is the failure-sequence ID (Fig. 2a) that generated the lead.
	Seq int
	// ID links a prediction to its failure. Spurious events have unique
	// IDs never shared with a failure.
	ID int64
}

// LeadCap bounds lead times at two hours. The mined distributions place
// vanishing mass beyond it, and a finite cap lets the stream emit events
// in time order with bounded lookahead.
const LeadCap = 7200

// EventSource is the failure-stream interface both simulation tiers
// consume: an infinite, time-ordered sequence of failure / prediction /
// spurious-prediction events. The parametric Stream and the
// trace-replaying ReplayStream both implement it, so a tier written
// against EventSource simulates either failure source unchanged.
type EventSource interface {
	Next() Event
}

// Config parameterises a failure stream.
type Config struct {
	// System supplies the Weibull inter-arrival distribution (Table III).
	System System
	// JobNodes is the number of nodes the simulated job occupies; the
	// system-wide distribution is rescaled to the job (see
	// System.JobScaleSeconds).
	JobNodes int
	// Leads is the lead-time model. Nil selects DefaultLeadTimes.
	Leads *LeadTimeModel
	// LeadScale stretches every lead time (the variability axis of the
	// paper's Figs. 4 and 7); zero means 1.0.
	LeadScale float64
	// FNRate is the predictor's false-negative rate: the fraction of
	// failures that arrive unannounced. The default 0.125 caps the FT
	// ratio near the ≈0.85–0.88 the paper reports.
	FNRate float64
	// FPRate is the fraction of predictions that are false positives
	// (the paper holds it at 0.18).
	FPRate float64
	// Metrics, when non-nil, receives the predictor's delivered
	// accounting as the stream is consumed: the lead-time distribution
	// actually handed to the simulator plus true/false positive and
	// false negative counts (see internal/metrics). Nil costs nothing.
	Metrics *metrics.Registry
	// Replay, when non-nil, replaces the parametric Weibull source with
	// a recorded failure trace: NewSource returns a ReplayStream over it
	// and every other stochastic knob of this Config is ignored (the
	// trace fixes times, nodes, and leads). See Replay.
	Replay *Replay
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Leads == nil {
		c.Leads = DefaultLeadTimes()
	}
	if c.LeadScale == 0 {
		c.LeadScale = 1
	}
	return c
}

// Validate reports a configuration error, or nil. FNRate of exactly zero
// is valid (a perfect-recall predictor). In replay mode only the job
// size and the trace itself matter — the parametric knobs are unused.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Replay != nil {
		if c.JobNodes <= 0 {
			return fmt.Errorf("failure: non-positive job size")
		}
		return c.Replay.Validate()
	}
	if err := c.System.Validate(); err != nil {
		return err
	}
	switch {
	case c.JobNodes <= 0:
		return fmt.Errorf("failure: non-positive job size")
	case c.LeadScale <= 0:
		return fmt.Errorf("failure: non-positive lead scale")
	case c.FNRate < 0 || c.FNRate > 1:
		return fmt.Errorf("failure: FN rate %g outside [0, 1]", c.FNRate)
	case c.FPRate < 0 || c.FPRate >= 1:
		return fmt.Errorf("failure: FP rate %g outside [0, 1)", c.FPRate)
	}
	return nil
}

// NewSource builds the event source this configuration describes: a
// ReplayStream when a recorded trace is configured, the parametric
// Stream otherwise. Panics on invalid configuration, like NewStream.
func NewSource(cfg Config, src *rng.Source) EventSource {
	if cfg.Replay != nil {
		if err := cfg.Validate(); err != nil {
			panic(err)
		}
		return NewReplayStream(cfg.Replay, cfg.JobNodes, cfg.Metrics)
	}
	return NewStream(cfg, src)
}

// DefaultFNRate is the baseline false-negative rate of the predictor.
const DefaultFNRate = 0.125

// DefaultFPRate is the baseline false-positive share of predictions,
// constant at 18 % throughout the paper (its Observation 9 setup).
const DefaultFPRate = 0.18

// Stream produces the merged, time-ordered event sequence for one
// simulation run. It is deterministic given its Source.
type Stream struct {
	cfg       Config
	leads     *LeadTimeModel
	src       *rng.Source
	buf       queue.PQ[Event]
	nextFail  float64 // arrival time of the next not-yet-expanded failure
	nextSpur  float64 // arrival time of the next spurious prediction
	spurRate  float64 // spurious predictions per second (0 = none)
	jobScale  float64 // Weibull scale for job inter-arrivals, seconds
	nextID    int64
	emittedTo float64
	met       streamMeters
}

// streamMeters is the delivered-event accounting shared by every
// EventSource implementation (nil-registry handles cost nothing).
type streamMeters struct {
	leadDelivered *metrics.Histogram
	predictions   *metrics.Counter
	spurious      *metrics.Counter
	unpredicted   *metrics.Counter
	failures      *metrics.Counter
}

func newStreamMeters(reg *metrics.Registry) streamMeters {
	return streamMeters{
		leadDelivered: reg.Histogram("failure.lead_delivered_seconds"),
		predictions:   reg.Counter("failure.true_predictions"),
		spurious:      reg.Counter("failure.false_positives"),
		unpredicted:   reg.Counter("failure.false_negatives"),
		failures:      reg.Counter("failure.failures"),
	}
}

// account records one delivered event: what reaches the consumer is what
// the simulator actually experienced.
func (m *streamMeters) account(ev Event) {
	switch ev.Kind {
	case KindPrediction:
		m.predictions.Inc()
		m.leadDelivered.Observe(ev.Lead)
	case KindSpurious:
		m.spurious.Inc()
	case KindFailure:
		m.failures.Inc()
		if ev.Lead == 0 {
			m.unpredicted.Inc()
		}
	}
}

// NewStream builds a parametric stream. It panics on invalid
// configuration, and on a replay configuration — NewSource dispatches
// between the two source kinds.
func NewStream(cfg Config, src *rng.Source) *Stream {
	if cfg.Replay != nil {
		panic("failure: NewStream on a replay configuration (use NewSource)")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	leads := cfg.Leads
	if cfg.LeadScale != 1 {
		leads = leads.Scaled(cfg.LeadScale)
	}
	s := &Stream{
		cfg:      cfg,
		leads:    leads,
		src:      src,
		jobScale: cfg.System.JobScaleSeconds(cfg.JobNodes),
		met:      newStreamMeters(cfg.Metrics),
	}
	// Spurious predictions arrive so that FPRate of all predictions are
	// false: rate_fp = rate_true_pred × FP/(1−FP).
	truePredRate := (1 - cfg.FNRate) * cfg.System.JobFailureRate(cfg.JobNodes)
	if cfg.FPRate > 0 && truePredRate > 0 {
		s.spurRate = truePredRate * cfg.FPRate / (1 - cfg.FPRate)
	}
	s.nextFail = s.src.Weibull(cfg.System.Shape, s.jobScale)
	s.nextSpur = s.sampleSpur(0)
	return s
}

func (s *Stream) sampleSpur(from float64) float64 {
	if s.spurRate <= 0 {
		return math.Inf(1)
	}
	return from + s.src.Exponential(s.spurRate)
}

// expandFailure turns the pending failure arrival into buffered events
// and samples the next arrival.
func (s *Stream) expandFailure() {
	t := s.nextFail
	s.nextFail = t + s.src.Weibull(s.cfg.System.Shape, s.jobScale)
	s.nextID++
	node := s.src.Intn(s.cfg.JobNodes)
	if s.src.Bool(s.cfg.FNRate) {
		// Missed by the predictor: failure arrives unannounced.
		s.buf.Push(t, Event{Kind: KindFailure, Time: t, Node: node, FailTime: t, ID: s.nextID})
		return
	}
	lead, seq := s.leads.Sample(s.src)
	if lead > LeadCap {
		lead = LeadCap
	}
	if lead > t {
		lead = t // cannot predict before the job started
	}
	predAt := t - lead
	lead = t - predAt // re-derive so Lead == FailTime − Time exactly
	s.buf.Push(predAt, Event{Kind: KindPrediction, Time: predAt, Node: node, Lead: lead, FailTime: t, Seq: seq, ID: s.nextID})
	s.buf.Push(t, Event{Kind: KindFailure, Time: t, Node: node, Lead: lead, FailTime: t, Seq: seq, ID: s.nextID})
}

// expandSpur buffers the pending spurious prediction and samples the next.
func (s *Stream) expandSpur() {
	t := s.nextSpur
	s.nextSpur = s.sampleSpur(t)
	s.nextID++
	lead, seq := s.leads.Sample(s.src)
	if lead > LeadCap {
		lead = LeadCap
	}
	s.buf.Push(t, Event{Kind: KindSpurious, Time: t, Node: s.src.Intn(s.cfg.JobNodes), Lead: lead, FailTime: t + lead, Seq: seq, ID: s.nextID})
}

// Next returns the next event in time order. The stream is infinite; the
// caller stops consuming when its simulation ends.
func (s *Stream) Next() Event {
	for {
		frontier := math.Min(s.nextFail, s.nextSpur) - LeadCap
		if t, _, ok := s.buf.Peek(); ok && t <= frontier {
			break
		}
		if s.nextFail <= s.nextSpur {
			s.expandFailure()
		} else {
			s.expandSpur()
		}
	}
	_, ev := s.buf.Pop()
	if ev.Time < s.emittedTo {
		// Ordering is structurally guaranteed; a violation means the
		// lookahead frontier logic broke. Fail loudly.
		panic(fmt.Sprintf("failure: stream emitted out of order (%g after %g)", ev.Time, s.emittedTo))
	}
	s.emittedTo = ev.Time
	s.met.account(ev)
	return ev
}

// RateEstimator tracks the observed job failure rate so the simulator can
// refresh the OCI as the run progresses (the paper recomputes the OCI
// periodically from the dynamically changing system failure rate). The
// estimate blends the analytic prior with the observed count, which keeps
// early-run estimates stable and converges to the empirical rate.
type RateEstimator struct {
	prior float64 // failures/second, analytic
	count int
	// priorWeight is the pseudo-observation time the prior is worth.
	priorWeight float64
}

// NewRateEstimator builds an estimator around an analytic prior rate
// (failures/second, job-wide).
func NewRateEstimator(prior float64) *RateEstimator {
	if prior <= 0 {
		panic("failure: non-positive prior rate")
	}
	return &RateEstimator{prior: prior, priorWeight: 3 / prior}
}

// Observe records one failure.
func (e *RateEstimator) Observe() { e.count++ }

// Rate returns the blended failures/second estimate after elapsed seconds
// of observation.
func (e *RateEstimator) Rate(elapsed float64) float64 {
	if elapsed < 0 {
		panic("failure: negative elapsed time")
	}
	return (float64(e.count) + e.prior*e.priorWeight) / (elapsed + e.priorWeight)
}
