// Package faultinject degrades the simulated platform: checkpoint writes
// that fail, checkpoints that commit torn and are discovered corrupt only
// when a restart tries to read them, restarts that need several attempts
// with backoff, and secondary failures cascading into recovery windows.
//
// The fault plan is seeded and deterministic. Every draw comes from a
// dedicated rng substream (Split(StreamKey) of the run's root source), so
// the plan is independent of the failure stream and of every other
// stochastic input: enabling injection with all probabilities at zero
// consumes no draws at all and is bit-identical to injection disabled.
// The Config participates in platform.CanonicalString, so degraded and
// perfect platforms can never collide in the result cache.
//
// The zero Injector (a nil pointer) is valid and injects nothing; every
// hook on it is a cheap no-op, so the tiers thread the injector through
// their hot paths unconditionally.
package faultinject

import (
	"flag"
	"fmt"
	"math"

	"pckpt/internal/metrics"
	"pckpt/internal/rng"
)

// StreamKey is the rng.Split key reserved for the fault plan. The failure
// stream owns key 1 and the injector key 2 (platform.Config.Sources
// splits both for every tier). Keeping the keys distinct is what makes
// rate-0 injection bit-identical to disabled.
const StreamKey = 2

// MaxCascadeDepth bounds how many secondary failures may pile onto one
// recovery window, and how many times a torn collective write is retried:
// a safety rail so a pathological configuration degrades the run instead
// of livelocking it.
const MaxCascadeDepth = 16

// Defaults for the bounded-retry restart policy, applied when
// RestartFailProb is positive and the field is unset.
const (
	DefaultRestartRetries        = 4
	DefaultRestartBackoffSeconds = 30
)

// MaxBackoffSeconds is where every exponential backoff of the fault
// plans stops doubling: a failed restart attempt's downtime and a crashed
// tenant's requeue delay. Uncapped, a long retry budget doubles a backoff
// past any horizon (3.3e14 s at a tenant's 40th crash) while brownout
// windows keep the engine busy, so the machine never drains. The
// committed specs and goldens stay below the ceiling (their longest
// backoffs are 1,200 s for a machine crash and 240 s for a restart), so
// it moves none of their results.
const MaxBackoffSeconds = 3600

// backoff returns base doubled once per prior attempt (doublings >= 0),
// the doubling stopping at MaxBackoffSeconds; a base already above the
// ceiling is charged as it is. math.Ldexp scales by a power of two
// exactly, so below the ceiling the result is base·2^doublings bit for
// bit, and no integer shift can wrap.
func backoff(base float64, doublings int) float64 {
	if base >= MaxBackoffSeconds {
		return base
	}
	return math.Min(math.Ldexp(base, doublings), MaxBackoffSeconds)
}

// Config is the declarative fault plan. The zero value is a perfect
// platform. All probabilities are per-event (per checkpoint write, per
// restart attempt, per recovery window) and must lie in [0, 1).
//
// Config is also the scenario spec's platform "faults" block: each
// field's JSON tag is its spec key, and the fields are ordered as the
// spec renders them. BindFlags binds the matching -inject-* flags.
type Config struct {
	// BBWriteFailProb is the probability that a coordinated burst-buffer
	// checkpoint write fails after occupying the BBs for its full duration
	// (nothing commits; the tier retries at the next periodic slot).
	BBWriteFailProb float64 `json:"bb_write_fail_prob,omitempty"`
	// PFSWriteFailProb is the probability that a PFS write — a drain, a
	// safeguard, a prioritized vulnerable-node write, or an episode's
	// phase-2 collective — fails after its full transfer time.
	PFSWriteFailProb float64 `json:"pfs_write_fail_prob,omitempty"`
	// CorruptProb is the probability that a committed checkpoint
	// generation is silently torn: the commit looks fine, and the damage
	// is discovered only when a restart tries to restore from it, forcing
	// policy.ResolveRestart to fall back to an older generation.
	CorruptProb float64 `json:"corrupt_prob,omitempty"`
	// RestartFailProb is the probability that a restart attempt fails
	// after its recovery read, costing a deterministic backoff before the
	// next attempt. After RestartRetries failed attempts the platform is
	// assumed recovered and the final attempt succeeds.
	RestartFailProb float64 `json:"restart_fail_prob,omitempty"`
	// CascadeProb is the probability that a secondary failure lands
	// inside a recovery window, voiding the partial restore: the elapsed
	// fraction of the window is wasted and the restore begins again.
	// Successive cascades on one window are drawn independently, bounded
	// by MaxCascadeDepth.
	CascadeProb float64 `json:"cascade_prob,omitempty"`
	// RestartRetries bounds the failed restart attempts per failure
	// (default DefaultRestartRetries when RestartFailProb > 0).
	RestartRetries int `json:"restart_retries,omitempty"`
	// RestartBackoffSeconds is the base backoff charged as downtime after
	// a failed restart attempt; it doubles per attempt up to
	// MaxBackoffSeconds (default DefaultRestartBackoffSeconds when
	// RestartFailProb > 0).
	RestartBackoffSeconds float64 `json:"restart_backoff_seconds,omitempty"`
}

// BindFlags binds the plan's -inject-* command-line flags on fs, each
// writing its field and defaulting to the field's current value.
func (c *Config) BindFlags(fs *flag.FlagSet) {
	fs.Float64Var(&c.BBWriteFailProb, "inject-bb", c.BBWriteFailProb, "degraded platform: BB checkpoint-write failure probability")
	fs.Float64Var(&c.PFSWriteFailProb, "inject-pfs", c.PFSWriteFailProb, "degraded platform: PFS write failure probability")
	fs.Float64Var(&c.CorruptProb, "inject-corrupt", c.CorruptProb, "degraded platform: silent checkpoint-corruption probability per commit")
	fs.Float64Var(&c.RestartFailProb, "inject-restart", c.RestartFailProb, "degraded platform: restart-attempt failure probability")
	fs.Float64Var(&c.CascadeProb, "inject-cascade", c.CascadeProb, "degraded platform: secondary-failure probability per recovery window")
	fs.IntVar(&c.RestartRetries, "inject-retries", c.RestartRetries, "degraded platform: restart retry bound (0 = default)")
	fs.Float64Var(&c.RestartBackoffSeconds, "inject-backoff", c.RestartBackoffSeconds, "degraded platform: base restart backoff seconds, doubling per attempt up to 3600 (0 = default)")
}

// WithDefaults fills the retry/backoff fields when restart failures are
// enabled. A zero Config stays zero.
func (c Config) WithDefaults() Config {
	if c.RestartFailProb > 0 {
		if c.RestartRetries == 0 {
			c.RestartRetries = DefaultRestartRetries
		}
		if c.RestartBackoffSeconds == 0 {
			c.RestartBackoffSeconds = DefaultRestartBackoffSeconds
		}
	}
	return c
}

// Enabled reports whether any fault has a nonzero probability.
func (c Config) Enabled() bool {
	return c.BBWriteFailProb > 0 || c.PFSWriteFailProb > 0 || c.CorruptProb > 0 ||
		c.RestartFailProb > 0 || c.CascadeProb > 0
}

// Validate rejects probabilities outside [0, 1), a negative retry
// bound, and a negative or non-finite backoff. Probability 1 is rejected deliberately: a platform
// where every write fails or every restart attempt fails can never make
// progress, and the simulation would not terminate.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"BBWriteFailProb", c.BBWriteFailProb},
		{"PFSWriteFailProb", c.PFSWriteFailProb},
		{"CorruptProb", c.CorruptProb},
		{"RestartFailProb", c.RestartFailProb},
		{"CascadeProb", c.CascadeProb},
	} {
		if p.v < 0 || p.v >= 1 || p.v != p.v {
			return fmt.Errorf("faultinject: %s = %v outside [0, 1)", p.name, p.v)
		}
	}
	if c.RestartRetries < 0 {
		return fmt.Errorf("faultinject: RestartRetries = %d negative", c.RestartRetries)
	}
	if b := c.RestartBackoffSeconds; b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
		return fmt.Errorf("faultinject: RestartBackoffSeconds = %v invalid", b)
	}
	return nil
}

// Injector draws the fault plan for one simulation run. A nil *Injector
// is the disabled plan: every hook returns the no-fault answer without
// touching any stream.
type Injector struct {
	cfg Config
	src rng.Source

	bbWriteFailures  *metrics.Counter
	pfsWriteFailures *metrics.Counter
	corruptRestarts  *metrics.Counter
	restartRetries   *metrics.Counter
	cascades         *metrics.Counter
	cascadeDepth     *metrics.Histogram
}

// New builds the injector for one run from the run's fault substream
// (src must be the root source's Split(StreamKey); the injector draws
// from a copy). A zero cfg returns nil — the disabled plan — so callers
// construct unconditionally.
func New(cfg Config, src *rng.Source, reg *metrics.Registry) *Injector {
	cfg = cfg.WithDefaults()
	if cfg == (Config{}) {
		return nil
	}
	in := new(Injector)
	in.Reset(cfg, src, reg)
	return in
}

// Reset makes in, in place, the injector New(cfg, src, reg) returns for
// a plan that is already defaulted and not zero: a recycled run record
// keeps one injector and resets it for each run.
func (in *Injector) Reset(cfg Config, src *rng.Source, reg *metrics.Registry) {
	*in = Injector{
		cfg:              cfg,
		src:              *src,
		bbWriteFailures:  reg.Counter("faultinject.bb_write_failures"),
		pfsWriteFailures: reg.Counter("faultinject.pfs_write_failures"),
		corruptRestarts:  reg.Counter("faultinject.corrupt_restarts"),
		restartRetries:   reg.Counter("faultinject.restart_retries"),
		cascades:         reg.Counter("faultinject.cascades"),
		cascadeDepth:     reg.Histogram("faultinject.cascade_depth"),
	}
}

// BBWriteFails draws whether the BB checkpoint write that just finished
// its transfer failed. The result must not be ignored: dropping it
// un-degrades the platform (cmd/vet-ignored enforces this).
func (in *Injector) BBWriteFails() bool {
	if in == nil || in.cfg.BBWriteFailProb <= 0 {
		return false
	}
	if !in.src.Bool(in.cfg.BBWriteFailProb) {
		return false
	}
	in.bbWriteFailures.Inc()
	return true
}

// PFSWriteFails draws whether the PFS write that just finished its
// transfer failed. Applies to drains, safeguards, prioritized
// vulnerable-node writes, and episode phase-2 collectives alike.
func (in *Injector) PFSWriteFails() bool {
	if in == nil || in.cfg.PFSWriteFailProb <= 0 {
		return false
	}
	if !in.src.Bool(in.cfg.PFSWriteFailProb) {
		return false
	}
	in.pfsWriteFailures.Inc()
	return true
}

// CorruptCommit draws whether the checkpoint generation that just
// committed is silently torn. The draw happens at commit time — the
// corruption is a property of the written bytes — but nothing is counted
// here: silent means silent, and the tier discovers (and accounts) it
// only through policy.ResolveRestart.
func (in *Injector) CorruptCommit() bool {
	if in == nil || in.cfg.CorruptProb <= 0 {
		return false
	}
	return in.src.Bool(in.cfg.CorruptProb)
}

// RestartAttemptFails draws whether restart attempt number attempt
// (0-based) fails, and if so the backoff to charge as downtime before
// the next attempt: base backoff doubled per prior attempt, up to
// MaxBackoffSeconds. Attempts at or beyond the retry bound always
// succeed — the platform is assumed to have recovered by then — which
// keeps every recovery finite.
func (in *Injector) RestartAttemptFails(attempt int) (fail bool, backoffSeconds float64) {
	if in == nil || in.cfg.RestartFailProb <= 0 {
		return false, 0
	}
	if attempt >= in.cfg.RestartRetries {
		return false, 0
	}
	if !in.src.Bool(in.cfg.RestartFailProb) {
		return false, 0
	}
	in.restartRetries.Inc()
	return true, backoff(in.cfg.RestartBackoffSeconds, attempt)
}

// CascadeRecovery draws whether a secondary failure lands inside the
// recovery window about to run and, if so, the fraction of the window
// that elapses before it strikes (that fraction of restore work is
// wasted). The caller bounds consecutive strikes by MaxCascadeDepth.
func (in *Injector) CascadeRecovery() (strike bool, elapsedFrac float64) {
	if in == nil || in.cfg.CascadeProb <= 0 {
		return false, 0
	}
	if !in.src.Bool(in.cfg.CascadeProb) {
		return false, 0
	}
	in.cascades.Inc()
	return true, in.src.Float64()
}

// ObserveCorruptRestarts accounts n checkpoint generations discovered
// corrupt while resolving one restart.
func (in *Injector) ObserveCorruptRestarts(n int) {
	if in == nil || n <= 0 {
		return
	}
	in.corruptRestarts.Add(float64(n))
}

// ObserveCascadeDepth records how many secondary failures piled onto one
// recovery window (called once per window that cascaded at all).
func (in *Injector) ObserveCascadeDepth(depth int) {
	if in == nil || depth <= 0 {
		return
	}
	in.cascadeDepth.Observe(float64(depth))
}
