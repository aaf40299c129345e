// Machine-scope fault plan: degradation that strikes the shared-machine
// substrate itself rather than any one tenant's writes — PFS brownout
// and blackout windows that move the arbiter's aggregate ceiling,
// drain-slot outages that shrink the machine-wide drain budget, and
// whole-tenant crashes (correlated across a rack) that throw running
// jobs back into the admission queue.
//
// Like the per-run Injector, the plan is seeded and deterministic:
// every draw comes from a dedicated substream (Split(MachineStreamKey)
// of the machine's root source), and each fault process owns its own
// sub-substream, so the brownout timeline is independent of the crash
// timeline and both are independent of every tenant's failure and
// injection streams. A zero MachineConfig builds a nil *MachineInjector
// whose hooks are no-ops — machine.Simulate with the plan disabled is
// bit-identical to the plan not existing.
package faultinject

import (
	"flag"
	"fmt"
	"math"

	"pckpt/internal/rng"
)

// MachineStreamKey is the rng.Split key reserved for the machine-scope
// fault plan. Tenant failure streams derive from per-job run seeds and
// the per-run injector owns StreamKey (2); the machine plan owns key 3
// of the machine's root source, so arming it consumes no tenant draws.
const MachineStreamKey = 3

// Defaults applied by MachineConfig.WithDefaults when the matching
// fault process is enabled and the field is unset.
const (
	DefaultBrownoutMeanSeconds    = 600
	DefaultBrownoutMinFactor      = 0.25
	DefaultBrownoutMaxFactor      = 0.75
	DefaultDrainOutageMeanSeconds = 600
	DefaultDrainOutageSlots       = 1
	DefaultCrashMaxRetries        = 2
	DefaultCrashBackoffSeconds    = 300
)

// MachineConfig is the declarative machine-scope fault plan. The zero
// value is a perfectly healthy machine. Rates are Poisson arrival rates
// per hour of machine time; window durations are exponential around
// their mean.
//
// MachineConfig is also the scenario spec's machine "faults" block: each
// field's JSON tag is its spec key. BindFlags binds the matching
// -machine-* flags.
type MachineConfig struct {
	// BrownoutRatePerHour is the arrival rate of PFS brownout windows.
	// During a window the arbiter's aggregate ceiling is scaled by a
	// factor drawn uniformly from [BrownoutMinFactor, BrownoutMaxFactor)
	// — or to zero (a blackout) with probability BlackoutProb. Windows
	// are sequential: the next gap is drawn when the current window ends.
	BrownoutRatePerHour float64 `json:"brownout_rate_per_hour,omitempty"`
	// BrownoutMeanSeconds is the mean brownout window duration
	// (default DefaultBrownoutMeanSeconds when the rate is set).
	BrownoutMeanSeconds float64 `json:"brownout_mean_seconds,omitempty"`
	// BrownoutMinFactor and BrownoutMaxFactor bound the ceiling scale
	// factor (defaults DefaultBrownoutMinFactor/MaxFactor when the rate
	// is set and both are zero).
	BrownoutMinFactor float64 `json:"brownout_min_factor,omitempty"`
	BrownoutMaxFactor float64 `json:"brownout_max_factor,omitempty"`
	// BlackoutProb is the probability a brownout window is a full
	// blackout: ceiling zero, every flow priced to zero until it lifts.
	BlackoutProb float64 `json:"blackout_prob,omitempty"`

	// DrainOutageRatePerHour is the arrival rate of drain-slot outages.
	// During an outage the machine-wide drain budget shrinks by
	// DrainOutageSlots (floored at zero) and the most recently admitted
	// in-flight drains requeue FIFO.
	DrainOutageRatePerHour float64 `json:"drain_outage_rate_per_hour,omitempty"`
	// DrainOutageMeanSeconds is the mean outage duration (default
	// DefaultDrainOutageMeanSeconds when the rate is set).
	DrainOutageMeanSeconds float64 `json:"drain_outage_mean_seconds,omitempty"`
	// DrainOutageSlots is how many slots an outage removes (default
	// DefaultDrainOutageSlots when the rate is set).
	DrainOutageSlots int `json:"drain_outage_slots,omitempty"`

	// CrashRatePerHour is the arrival rate of whole-rack crashes: every
	// running tenant in the struck fault-domain group loses its flows
	// and re-enters the admission queue after an exponential backoff.
	CrashRatePerHour float64 `json:"crash_rate_per_hour,omitempty"`
	// CrashMaxRetries bounds readmissions per job (default
	// DefaultCrashMaxRetries when the rate is set); a job crashing
	// beyond the bound ends as a truncated run instead of requeueing.
	CrashMaxRetries int `json:"crash_max_retries,omitempty"`
	// CrashBackoffSeconds is the base requeue delay after a crash,
	// doubling per prior crash of the same job up to MaxBackoffSeconds
	// (default DefaultCrashBackoffSeconds when the rate is set).
	CrashBackoffSeconds float64 `json:"crash_backoff_seconds,omitempty"`

	// StarvationEscalationSeconds arms the arbiter's starvation
	// watchdog: a flow starved longer than this escalates into the
	// priority lane. Zero leaves the watchdog off.
	StarvationEscalationSeconds float64 `json:"starvation_escalation_seconds,omitempty"`
}

// BindFlags binds the plan's -machine-* command-line flags on fs, each
// writing its field and defaulting to the field's current value. The
// brownout factor bounds and the drain-outage mean are spec-only.
func (c *MachineConfig) BindFlags(fs *flag.FlagSet) {
	fs.Float64Var(&c.BrownoutRatePerHour, "machine-brownout-rate", c.BrownoutRatePerHour, "machine faults (shared-machine runs only): PFS brownout windows per hour")
	fs.Float64Var(&c.BrownoutMeanSeconds, "machine-brownout-mean", c.BrownoutMeanSeconds, "machine faults: mean brownout window seconds (0 = default)")
	fs.Float64Var(&c.BlackoutProb, "machine-blackout-prob", c.BlackoutProb, "machine faults: probability a brownout is a full blackout (ceiling zero)")
	fs.Float64Var(&c.DrainOutageRatePerHour, "machine-drain-outage-rate", c.DrainOutageRatePerHour, "machine faults: drain-slot outages per hour")
	fs.IntVar(&c.DrainOutageSlots, "machine-drain-outage-slots", c.DrainOutageSlots, "machine faults: drain slots removed per outage (0 = default)")
	fs.Float64Var(&c.CrashRatePerHour, "machine-crash-rate", c.CrashRatePerHour, "machine faults: rack crashes per hour (tenants crash and requeue)")
	fs.IntVar(&c.CrashMaxRetries, "machine-crash-retries", c.CrashMaxRetries, "machine faults: crash readmissions per job before the run truncates (0 = default)")
	fs.Float64Var(&c.CrashBackoffSeconds, "machine-crash-backoff", c.CrashBackoffSeconds, "machine faults: base requeue backoff seconds, doubling per crash up to 3600 (0 = default)")
	fs.Float64Var(&c.StarvationEscalationSeconds, "machine-starve-escalation", c.StarvationEscalationSeconds, "machine faults: starvation-watchdog bound seconds (0 = watchdog off)")
}

// WithDefaults fills the per-process defaults for every enabled fault
// process. A zero MachineConfig stays zero.
func (c MachineConfig) WithDefaults() MachineConfig {
	if c.BrownoutRatePerHour > 0 {
		if c.BrownoutMeanSeconds == 0 {
			c.BrownoutMeanSeconds = DefaultBrownoutMeanSeconds
		}
		if c.BrownoutMinFactor == 0 && c.BrownoutMaxFactor == 0 {
			c.BrownoutMinFactor = DefaultBrownoutMinFactor
			c.BrownoutMaxFactor = DefaultBrownoutMaxFactor
		}
	}
	if c.DrainOutageRatePerHour > 0 {
		if c.DrainOutageMeanSeconds == 0 {
			c.DrainOutageMeanSeconds = DefaultDrainOutageMeanSeconds
		}
		if c.DrainOutageSlots == 0 {
			c.DrainOutageSlots = DefaultDrainOutageSlots
		}
	}
	if c.CrashRatePerHour > 0 {
		if c.CrashMaxRetries == 0 {
			c.CrashMaxRetries = DefaultCrashMaxRetries
		}
		if c.CrashBackoffSeconds == 0 {
			c.CrashBackoffSeconds = DefaultCrashBackoffSeconds
		}
	}
	return c
}

// Enabled reports whether any machine-scope fault process (or the
// starvation watchdog) is armed.
func (c MachineConfig) Enabled() bool {
	return c.BrownoutRatePerHour > 0 || c.DrainOutageRatePerHour > 0 ||
		c.CrashRatePerHour > 0 || c.StarvationEscalationSeconds > 0
}

// Validate rejects rates, durations, and bounds outside their domains.
func (c MachineConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"BrownoutRatePerHour", c.BrownoutRatePerHour},
		{"BrownoutMeanSeconds", c.BrownoutMeanSeconds},
		{"DrainOutageRatePerHour", c.DrainOutageRatePerHour},
		{"DrainOutageMeanSeconds", c.DrainOutageMeanSeconds},
		{"CrashRatePerHour", c.CrashRatePerHour},
		{"CrashBackoffSeconds", c.CrashBackoffSeconds},
		{"StarvationEscalationSeconds", c.StarvationEscalationSeconds},
	} {
		if p.v < 0 || math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("faultinject: %s = %v invalid", p.name, p.v)
		}
	}
	if c.BrownoutMinFactor < 0 || c.BrownoutMaxFactor > 1 ||
		c.BrownoutMinFactor > c.BrownoutMaxFactor ||
		c.BrownoutMinFactor != c.BrownoutMinFactor || c.BrownoutMaxFactor != c.BrownoutMaxFactor {
		return fmt.Errorf("faultinject: brownout factors [%v, %v] outside 0 <= min <= max <= 1",
			c.BrownoutMinFactor, c.BrownoutMaxFactor)
	}
	if c.BlackoutProb < 0 || c.BlackoutProb > 1 || c.BlackoutProb != c.BlackoutProb {
		return fmt.Errorf("faultinject: BlackoutProb = %v outside [0, 1]", c.BlackoutProb)
	}
	if c.DrainOutageSlots < 0 {
		return fmt.Errorf("faultinject: DrainOutageSlots = %d negative", c.DrainOutageSlots)
	}
	if c.CrashMaxRetries < 0 {
		return fmt.Errorf("faultinject: CrashMaxRetries = %d negative", c.CrashMaxRetries)
	}
	return nil
}

// MachineInjector draws the machine-scope fault plan for one machine
// run. A nil *MachineInjector is the disabled plan. Each fault process
// draws from its own substream, so the processes' timelines are
// mutually independent no matter how their events interleave.
type MachineInjector struct {
	cfg                    MachineConfig
	brownout, drain, crash rng.Source
}

// NewMachine builds the machine-fault injector from the plan's
// substream (src must be the machine root source's
// Split(MachineStreamKey)). A zero cfg returns nil — the disabled plan.
// No simulation calls it: a machine run record resets the injector it
// keeps (Reset). TestMachineInjectorNilSafe, TestBackoffCeiling and the
// other injector tests build theirs with it.
func NewMachine(cfg MachineConfig, src *rng.Source) *MachineInjector {
	return new(MachineInjector).Reset(cfg, src)
}

// Reset makes in, in place, the injector NewMachine(cfg, src) builds and
// returns it; for a zero cfg it returns nil, the disabled plan, and
// leaves in alone. A machine run record keeps one injector and reseeds
// its substreams for each run.
func (in *MachineInjector) Reset(cfg MachineConfig, src *rng.Source) *MachineInjector {
	cfg = cfg.WithDefaults()
	if cfg == (MachineConfig{}) {
		return nil
	}
	in.cfg = cfg
	src.SplitTo(0, &in.brownout)
	src.SplitTo(1, &in.drain)
	src.SplitTo(2, &in.crash)
	return in
}

// MachineConfig returns the (defaulted) plan. The nil injector reports
// the zero MachineConfig.
func (in *MachineInjector) MachineConfig() MachineConfig {
	if in == nil {
		return MachineConfig{}
	}
	return in.cfg
}

// NextBrownoutGap draws the seconds until the next brownout window
// opens (infinite when the process is disabled). The result must not be
// ignored: dropping it desynchronizes the plan (cmd/vet-ignored
// enforces this, as for every draw below).
func (in *MachineInjector) NextBrownoutGap() float64 {
	if in == nil || in.cfg.BrownoutRatePerHour <= 0 {
		return math.Inf(1)
	}
	return in.brownout.Exponential(in.cfg.BrownoutRatePerHour / 3600)
}

// BrownoutWindow draws one brownout window: its duration and the
// ceiling scale factor (zero = blackout).
func (in *MachineInjector) BrownoutWindow() (durSeconds, factor float64) {
	if in == nil || in.cfg.BrownoutRatePerHour <= 0 {
		return 0, 1
	}
	durSeconds = in.brownout.Exponential(1 / in.cfg.BrownoutMeanSeconds)
	if in.brownout.Bool(in.cfg.BlackoutProb) {
		return durSeconds, 0
	}
	if in.cfg.BrownoutMinFactor == in.cfg.BrownoutMaxFactor {
		return durSeconds, in.cfg.BrownoutMinFactor
	}
	return durSeconds, in.brownout.Uniform(in.cfg.BrownoutMinFactor, in.cfg.BrownoutMaxFactor)
}

// NextDrainOutageGap draws the seconds until the next drain-slot outage
// (infinite when the process is disabled).
func (in *MachineInjector) NextDrainOutageGap() float64 {
	if in == nil || in.cfg.DrainOutageRatePerHour <= 0 {
		return math.Inf(1)
	}
	return in.drain.Exponential(in.cfg.DrainOutageRatePerHour / 3600)
}

// DrainOutageWindow draws one outage window: its duration and how many
// drain slots it removes.
func (in *MachineInjector) DrainOutageWindow() (durSeconds float64, slots int) {
	if in == nil || in.cfg.DrainOutageRatePerHour <= 0 {
		return 0, 0
	}
	return in.drain.Exponential(1 / in.cfg.DrainOutageMeanSeconds), in.cfg.DrainOutageSlots
}

// NextCrashGap draws the seconds until the next rack crash (infinite
// when the process is disabled).
func (in *MachineInjector) NextCrashGap() float64 {
	if in == nil || in.cfg.CrashRatePerHour <= 0 {
		return math.Inf(1)
	}
	return in.crash.Exponential(in.cfg.CrashRatePerHour / 3600)
}

// CrashRack draws which of numRacks fault-domain groups the crash
// strikes. The draw happens unconditionally at the planned crash time —
// whether any tenant of the rack is running — so the plan's timeline is
// independent of machine state.
func (in *MachineInjector) CrashRack(numRacks int) int {
	if in == nil || in.cfg.CrashRatePerHour <= 0 || numRacks <= 0 {
		return 0
	}
	return in.crash.Intn(numRacks)
}

// CrashBackoffSeconds returns the requeue delay after a job's crash
// number crashes (1-based): base backoff doubled per prior crash, up to
// MaxBackoffSeconds.
func (in *MachineInjector) CrashBackoffSeconds(crashes int) float64 {
	if in == nil || crashes <= 0 {
		return 0
	}
	return backoff(in.cfg.CrashBackoffSeconds, crashes-1)
}
