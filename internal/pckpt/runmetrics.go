package pckpt

import (
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

// NewRunMetrics resolves the handle set against r (all nil when r is nil).
func NewRunMetrics(r *metrics.Registry, id policy.ID) RunMetrics {
	if r == nil {
		return RunMetrics{}
	}
	p := "sim." + id.String() + "."
	return RunMetrics{
		BBWrite:           r.Histogram(p + "bb_write_seconds"),
		EpisodeDur:        r.Histogram(p + "episode_seconds"),
		CommitLat:         r.Histogram(p + "episode_commit_latency_seconds"),
		EpisodeWidth:      r.Histogram(p + "episode_width_nodes"),
		SafeguardDur:      r.Histogram(p + "safeguard_seconds"),
		RecoveryDur:       r.Histogram(p + "recovery_seconds"),
		RecomputeLoss:     r.Histogram(p + "recompute_loss_seconds"),
		PFSGBs:            r.Histogram(p + "pfs_effective_gbps"),
		LeadConsumed:      r.Histogram(p + "lead_consumed_seconds"),
		LeadMargin:        r.Histogram(p + "lead_margin_seconds"),
		DrainDepth:        r.Gauge(p + "drain_queue_depth"),
		VulnNodes:         r.Gauge(p + "vulnerable_nodes"),
		BBAborted:         r.Counter(p + "bb_writes_aborted"),
		EpisodesAbandoned: r.Counter(p + "episodes_abandoned"),
	}
}

// ObserveCluster installs a cluster observer maintaining the VulnNodes
// gauge, stamped with the simulation clock now. Call it only when
// metering is on, so the unmetered hot path keeps a nil observer (one
// branch per transition, nothing more). The observer holds these
// handles: a caller that recycles cl must remove it before the cluster
// outlives the run.
func (m RunMetrics) ObserveCluster(cl *cluster.Cluster, now func() float64) {
	vuln := 0
	counted := func(s cluster.State) bool {
		return s == cluster.Vulnerable || s == cluster.Migrating
	}
	cl.SetObserver(func(id int, from, to cluster.State) {
		if counted(from) {
			vuln--
		}
		if counted(to) {
			vuln++
		}
		m.VulnNodes.Set(now(), float64(vuln))
	})
}
