package pckpt

import (
	"sync"

	"pckpt/internal/cluster"
	"pckpt/internal/metrics"
	"pckpt/internal/policy"
)

// RunMetrics is one application run's instrument handles, resolved once
// at run start. Both application-granularity tiers record through it —
// the process model (internal/crmodel) and the callback port
// (internal/stepsim) — so the two share one vocabulary and, being
// bit-identical, give the same snapshot for the same seed. With metering
// off every handle is nil and every call is a no-op that allocates
// nothing (the same contract as trace.Recorder).
//
// Metric names are prefixed "sim.<model>." so aggregating across the
// five C/R models in one experiment keeps their distributions apart.
type RunMetrics struct {
	// BBWrite is the wall span the application is blocked per completed
	// periodic BB checkpoint (interleaved proactive handling included).
	BBWrite *metrics.Histogram
	// EpisodeDur / CommitLat cover p-ckpt episodes: total blocked span
	// per completed episode, and per-vulnerable-node commit latency from
	// episode start to the node's prioritized PFS commit; EpisodeWidth is
	// the vulnerable+migrating population each episode opens against.
	EpisodeDur   *metrics.Histogram
	CommitLat    *metrics.Histogram
	EpisodeWidth *metrics.Histogram
	// SafeguardDur is the blocked span per completed M1 safeguard.
	SafeguardDur *metrics.Histogram
	// RecoveryDur is the restart latency per failure (all retries until a
	// recovery completes); RecomputeLoss is the progress rolled back.
	RecoveryDur   *metrics.Histogram
	RecomputeLoss *metrics.Histogram
	// PFSGBs is the effective aggregate PFS bandwidth drawn per
	// collective transfer (phase-2 commits, safeguards, PFS recoveries).
	PFSGBs *metrics.Histogram
	// LeadConsumed / LeadMargin split each mitigated prediction's lead
	// time into the part spent reaching safety and the part left over.
	LeadConsumed *metrics.Histogram
	LeadMargin   *metrics.Histogram
	// DrainDepth tracks in-flight BB→PFS drains over sim time; VulnNodes
	// tracks the vulnerable+migrating population.
	DrainDepth *metrics.Gauge
	VulnNodes  *metrics.Gauge
	// BBAborted counts periodic checkpoints voided by failures;
	// EpisodesAbandoned counts p-ckpt episodes cut short the same way.
	BBAborted         *metrics.Counter
	EpisodesAbandoned *metrics.Counter
}

// The series RunMetrics records, indexing runSeries.
const (
	bbWrite = iota
	episodeDur
	commitLat
	episodeWidth
	safeguardDur
	recoveryDur
	recomputeLoss
	pfsGBs
	leadConsumed
	leadMargin
	drainDepth
	vulnNodes
	bbAborted
	episodesAbandoned
	numRunSeries
)

// runSeries names each series after its "sim.<model>." prefix.
var runSeries = [numRunSeries]string{
	bbWrite:           "bb_write_seconds",
	episodeDur:        "episode_seconds",
	commitLat:         "episode_commit_latency_seconds",
	episodeWidth:      "episode_width_nodes",
	safeguardDur:      "safeguard_seconds",
	recoveryDur:       "recovery_seconds",
	recomputeLoss:     "recompute_loss_seconds",
	pfsGBs:            "pfs_effective_gbps",
	leadConsumed:      "lead_consumed_seconds",
	leadMargin:        "lead_margin_seconds",
	drainDepth:        "drain_queue_depth",
	vulnNodes:         "vulnerable_nodes",
	bbAborted:         "bb_writes_aborted",
	episodesAbandoned: "episodes_abandoned",
}

// seriesNames returns a catalogue model's full series names. They are
// built once, on the first metered run, rather than concatenated on
// every one; nothing is built at package init.
func seriesNames(id policy.ID) *[numRunSeries]string {
	catalogueOnce.Do(func() {
		for _, id := range policy.All() {
			for i, s := range runSeries {
				catalogueSeries[id][i] = "sim." + id.String() + "." + s
			}
		}
	})
	return &catalogueSeries[id]
}

var (
	catalogueOnce   sync.Once
	catalogueSeries [policy.P2 + 1][numRunSeries]string
)

// NewRunMetrics resolves the handle set against r (all nil when r is nil).
func NewRunMetrics(r *metrics.Registry, id policy.ID) RunMetrics {
	if r == nil {
		return RunMetrics{}
	}
	n := seriesNames(id)
	return RunMetrics{
		BBWrite:           r.Histogram(n[bbWrite]),
		EpisodeDur:        r.Histogram(n[episodeDur]),
		CommitLat:         r.Histogram(n[commitLat]),
		EpisodeWidth:      r.Histogram(n[episodeWidth]),
		SafeguardDur:      r.Histogram(n[safeguardDur]),
		RecoveryDur:       r.Histogram(n[recoveryDur]),
		RecomputeLoss:     r.Histogram(n[recomputeLoss]),
		PFSGBs:            r.Histogram(n[pfsGBs]),
		LeadConsumed:      r.Histogram(n[leadConsumed]),
		LeadMargin:        r.Histogram(n[leadMargin]),
		DrainDepth:        r.Gauge(n[drainDepth]),
		VulnNodes:         r.Gauge(n[vulnNodes]),
		BBAborted:         r.Counter(n[bbAborted]),
		EpisodesAbandoned: r.Counter(n[episodesAbandoned]),
	}
}

// ObserveCluster installs a cluster observer that applies CountVulnerable
// on every transition, stamped with the simulation clock now. Call it
// only when metering is on, so the unmetered hot path keeps a nil
// observer (one branch per transition, nothing more). The observer holds
// these handles: a caller that recycles cl must remove it before the
// cluster outlives the run.
func (m RunMetrics) ObserveCluster(cl *cluster.Cluster, now func() float64) {
	cl.SetObserver(func(int, cluster.State, cluster.State) {
		m.CountVulnerable(now(), cl)
	})
}

// CountVulnerable sets the VulnNodes gauge to cl's at-risk count at
// simulation time now: what a metered run records on each cluster
// transition, through ObserveCluster's observer or the step tier's
// prebound one.
func (m RunMetrics) CountVulnerable(now float64, cl *cluster.Cluster) {
	m.VulnNodes.Set(now, float64(cl.AtRisk()))
}
