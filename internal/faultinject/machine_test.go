package faultinject

import (
	"flag"
	"math"
	"testing"

	"pckpt/internal/rng"
)

func TestMachineConfigValidate(t *testing.T) {
	ok := MachineConfig{
		BrownoutRatePerHour: 0.5, BrownoutMeanSeconds: 600,
		BrownoutMinFactor: 0.2, BrownoutMaxFactor: 0.6, BlackoutProb: 0.25,
		DrainOutageRatePerHour: 0.4, DrainOutageSlots: 2,
		CrashRatePerHour: 0.1, CrashMaxRetries: 3, CrashBackoffSeconds: 300,
		StarvationEscalationSeconds: 900,
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid machine plan rejected: %v", err)
	}
	if err := (MachineConfig{}).Validate(); err != nil {
		t.Fatalf("zero (healthy) plan rejected: %v", err)
	}
	bad := []MachineConfig{
		{BrownoutRatePerHour: -1},
		{BrownoutMeanSeconds: math.NaN()},
		{BrownoutMinFactor: 0.8, BrownoutMaxFactor: 0.2}, // min > max
		{BrownoutMaxFactor: 1.5},
		{BrownoutMinFactor: -0.1, BrownoutMaxFactor: 0},
		{BlackoutProb: 1.1},
		{BlackoutProb: math.NaN()},
		{DrainOutageRatePerHour: math.Inf(1)},
		{DrainOutageSlots: -1},
		{CrashRatePerHour: -2},
		{CrashMaxRetries: -1},
		{CrashBackoffSeconds: -5},
		{StarvationEscalationSeconds: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid machine plan accepted: %+v", c)
		}
	}
}

// WithDefaults fills only the processes that are enabled, is idempotent,
// and leaves the zero plan zero.
func TestMachineConfigWithDefaults(t *testing.T) {
	if got := (MachineConfig{}).WithDefaults(); got != (MachineConfig{}) {
		t.Fatalf("zero plan gained defaults: %+v", got)
	}
	c := MachineConfig{BrownoutRatePerHour: 1, DrainOutageRatePerHour: 1, CrashRatePerHour: 1}.WithDefaults()
	if c.BrownoutMeanSeconds != DefaultBrownoutMeanSeconds ||
		c.BrownoutMinFactor != DefaultBrownoutMinFactor ||
		c.BrownoutMaxFactor != DefaultBrownoutMaxFactor {
		t.Fatalf("brownout defaults not applied: %+v", c)
	}
	if c.DrainOutageMeanSeconds != DefaultDrainOutageMeanSeconds || c.DrainOutageSlots != DefaultDrainOutageSlots {
		t.Fatalf("drain-outage defaults not applied: %+v", c)
	}
	if c.CrashMaxRetries != DefaultCrashMaxRetries || c.CrashBackoffSeconds != DefaultCrashBackoffSeconds {
		t.Fatalf("crash defaults not applied: %+v", c)
	}
	if c2 := c.WithDefaults(); c2 != c {
		t.Fatalf("WithDefaults is not idempotent:\n%+v\nvs\n%+v", c, c2)
	}
	// An explicit min factor alone must not drag in the default max
	// (min==max pins the factor).
	pinned := MachineConfig{BrownoutRatePerHour: 1, BrownoutMinFactor: 0.5, BrownoutMaxFactor: 0.5}.WithDefaults()
	if pinned.BrownoutMinFactor != 0.5 || pinned.BrownoutMaxFactor != 0.5 {
		t.Fatalf("pinned factor overwritten: %+v", pinned)
	}
	// Disabled processes stay unfilled.
	if got := (MachineConfig{StarvationEscalationSeconds: 900}).WithDefaults(); got.CrashBackoffSeconds != 0 || got.BrownoutMeanSeconds != 0 {
		t.Fatalf("watchdog-only plan gained process defaults: %+v", got)
	}
}

func TestMachineConfigEnabled(t *testing.T) {
	if (MachineConfig{}).Enabled() {
		t.Error("zero plan reports enabled")
	}
	for _, c := range []MachineConfig{
		{BrownoutRatePerHour: 0.1},
		{DrainOutageRatePerHour: 0.1},
		{CrashRatePerHour: 0.1},
		{StarvationEscalationSeconds: 1},
	} {
		if !c.Enabled() {
			t.Errorf("armed plan reports disabled: %+v", c)
		}
	}
}

// A zero plan builds the nil injector, and every nil draw is a safe
// no-op: infinite gaps, identity windows, zero backoff.
func TestMachineInjectorNilSafe(t *testing.T) {
	in := NewMachine(MachineConfig{}, rng.New(1).Split(MachineStreamKey))
	if in != nil {
		t.Fatal("zero plan built a live injector")
	}
	if g := in.NextBrownoutGap(); !math.IsInf(g, 1) {
		t.Errorf("nil NextBrownoutGap = %g, want +Inf", g)
	}
	if d, f := in.BrownoutWindow(); d != 0 || f != 1 {
		t.Errorf("nil BrownoutWindow = (%g, %g), want (0, 1)", d, f)
	}
	if g := in.NextDrainOutageGap(); !math.IsInf(g, 1) {
		t.Errorf("nil NextDrainOutageGap = %g, want +Inf", g)
	}
	if d, s := in.DrainOutageWindow(); d != 0 || s != 0 {
		t.Errorf("nil DrainOutageWindow = (%g, %d), want (0, 0)", d, s)
	}
	if g := in.NextCrashGap(); !math.IsInf(g, 1) {
		t.Errorf("nil NextCrashGap = %g, want +Inf", g)
	}
	if r := in.CrashRack(4); r != 0 {
		t.Errorf("nil CrashRack = %d, want 0", r)
	}
	if b := in.CrashBackoffSeconds(3); b != 0 {
		t.Errorf("nil CrashBackoffSeconds = %g, want 0", b)
	}
	if got := in.MachineConfig(); got != (MachineConfig{}) {
		t.Errorf("nil MachineConfig = %+v, want zero", got)
	}
}

// A disabled process on a live injector draws nothing from its
// substream: the gap is infinite and the window is the identity.
func TestMachineInjectorDisabledProcessDrawsNothing(t *testing.T) {
	in := NewMachine(MachineConfig{CrashRatePerHour: 1}, rng.New(1).Split(MachineStreamKey))
	if in == nil {
		t.Fatal("crash-armed plan built no injector")
	}
	if g := in.NextBrownoutGap(); !math.IsInf(g, 1) {
		t.Errorf("disabled brownout gap = %g, want +Inf", g)
	}
	if d, f := in.BrownoutWindow(); d != 0 || f != 1 {
		t.Errorf("disabled BrownoutWindow = (%g, %g), want (0, 1)", d, f)
	}
	if g := in.NextDrainOutageGap(); !math.IsInf(g, 1) {
		t.Errorf("disabled drain gap = %g, want +Inf", g)
	}
}

// The plan is deterministic in its seed, and each fault process owns an
// independent substream: drawing crashes never perturbs brownouts.
func TestMachineInjectorSubstreamIndependence(t *testing.T) {
	full := MachineConfig{
		BrownoutRatePerHour:    1,
		DrainOutageRatePerHour: 1,
		CrashRatePerHour:       1,
	}
	a := NewMachine(full, rng.New(42).Split(MachineStreamKey))
	b := NewMachine(full, rng.New(42).Split(MachineStreamKey))
	// b interleaves crash draws between its brownout draws; a does not.
	// The brownout sequences must match anyway.
	for i := 0; i < 16; i++ {
		want := a.NextBrownoutGap()
		_ = b.NextCrashGap()
		if got := b.NextBrownoutGap(); got != want {
			t.Fatalf("draw %d: brownout gap %g after crash interleaving, want %g", i, got, want)
		}
	}
	// Same seed, same sequence.
	c := NewMachine(full, rng.New(42).Split(MachineStreamKey))
	d := NewMachine(full, rng.New(42).Split(MachineStreamKey))
	for i := 0; i < 16; i++ {
		if c.NextCrashGap() != d.NextCrashGap() {
			t.Fatalf("draw %d: same-seed crash gaps differ", i)
		}
	}
}

// Window draws respect their configured domains.
func TestMachineInjectorWindowDomains(t *testing.T) {
	cfg := MachineConfig{
		BrownoutRatePerHour: 1,
		BrownoutMinFactor:   0.2, BrownoutMaxFactor: 0.6,
		BlackoutProb:           0.3,
		DrainOutageRatePerHour: 1, DrainOutageSlots: 2,
	}
	in := NewMachine(cfg, rng.New(9).Split(MachineStreamKey))
	blackouts := 0
	for i := 0; i < 500; i++ {
		dur, f := in.BrownoutWindow()
		if dur < 0 {
			t.Fatalf("negative window duration %g", dur)
		}
		if f == 0 {
			blackouts++
			continue
		}
		if f < 0.2 || f >= 0.6 {
			t.Fatalf("brownout factor %g outside [0.2, 0.6)", f)
		}
	}
	if blackouts == 0 || blackouts == 500 {
		t.Fatalf("%d/500 blackouts at prob 0.3 — the blackout draw is stuck", blackouts)
	}
	if _, slots := in.DrainOutageWindow(); slots != 2 {
		t.Fatalf("DrainOutageWindow slots = %d, want 2", slots)
	}
}

// CrashBackoffSeconds doubles per prior crash of the same job.
func TestMachineInjectorCrashBackoffDoubles(t *testing.T) {
	in := NewMachine(MachineConfig{CrashRatePerHour: 1, CrashBackoffSeconds: 100}, rng.New(1).Split(MachineStreamKey))
	for crashes, want := range map[int]float64{1: 100, 2: 200, 3: 400, 4: 800} {
		if got := in.CrashBackoffSeconds(crashes); got != want {
			t.Errorf("CrashBackoffSeconds(%d) = %g, want %g", crashes, got, want)
		}
	}
	if got := in.CrashBackoffSeconds(0); got != 0 {
		t.Errorf("CrashBackoffSeconds(0) = %g, want 0", got)
	}
}

// BindFlags binds the nine -machine-* flags; the brownout factor bounds
// and the drain-outage mean stay spec-only and keep their values.
func TestMachineConfigBindFlags(t *testing.T) {
	c := MachineConfig{BrownoutMinFactor: 0.2, BrownoutMaxFactor: 0.6, DrainOutageMeanSeconds: 300, CrashMaxRetries: 4}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c.BindFlags(fs)
	if err := fs.Parse([]string{"-machine-brownout-rate", "0.5", "-machine-brownout-mean", "60",
		"-machine-blackout-prob", "0.25", "-machine-drain-outage-rate", "0.4", "-machine-drain-outage-slots", "2",
		"-machine-crash-rate", "0.1", "-machine-crash-backoff", "30", "-machine-starve-escalation", "900"}); err != nil {
		t.Fatal(err)
	}
	want := MachineConfig{
		BrownoutRatePerHour: 0.5, BrownoutMeanSeconds: 60, BrownoutMinFactor: 0.2, BrownoutMaxFactor: 0.6,
		BlackoutProb: 0.25, DrainOutageRatePerHour: 0.4, DrainOutageMeanSeconds: 300, DrainOutageSlots: 2,
		CrashRatePerHour: 0.1, CrashMaxRetries: 4, CrashBackoffSeconds: 30, StarvationEscalationSeconds: 900,
	}
	if c != want {
		t.Fatalf("bound plan %+v, want %+v", c, want)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 9 {
		t.Fatalf("BindFlags bound %d flags, want 9", n)
	}
}

// Both exponential backoffs — a crash requeue's and a failed restart's
// — stay finite, never shrink, and stop at MaxBackoffSeconds for every
// attempt from 1 to 1,000: no integer shift wraps them to zero, and no
// doubling runs them past any horizon. Below the ceiling they keep
// doubling exactly, and a base above it is charged unchanged.
func TestBackoffCeiling(t *testing.T) {
	crash := NewMachine(MachineConfig{CrashRatePerHour: 1}, rng.New(1).Split(MachineStreamKey))
	restart := New(Config{RestartFailProb: 0.9, RestartRetries: 1001}, rng.New(1).Split(StreamKey), nil)
	lastCrash, lastRestart, restarts := 0.0, 0.0, 0
	for attempt := 1; attempt <= 1000; attempt++ {
		c := crash.CrashBackoffSeconds(attempt)
		if math.IsInf(c, 0) || math.IsNaN(c) || c < lastCrash || c > MaxBackoffSeconds {
			t.Fatalf("crash %d: backoff %g after %g (ceiling %d)", attempt, c, lastCrash, MaxBackoffSeconds)
		}
		lastCrash = c
		// Attempts are 0-based here; a successful one charges nothing.
		if fail, r := restart.RestartAttemptFails(attempt - 1); fail {
			restarts++
			if math.IsInf(r, 0) || math.IsNaN(r) || r < lastRestart || r > MaxBackoffSeconds {
				t.Fatalf("restart attempt %d: backoff %g after %g (ceiling %d)", attempt-1, r, lastRestart, MaxBackoffSeconds)
			}
			lastRestart = r
		}
	}
	if lastCrash != MaxBackoffSeconds || lastRestart != MaxBackoffSeconds || restarts < 800 {
		t.Fatalf("backoffs end at %g (crash) and %g (restart, %d failed attempts), want the %d s ceiling",
			lastCrash, lastRestart, restarts, MaxBackoffSeconds)
	}
	for doublings, want := range map[int]float64{0: 300, 1: 600, 2: 1200, 3: 2400, 4: MaxBackoffSeconds, 64: MaxBackoffSeconds, 2000: MaxBackoffSeconds} {
		if got := backoff(300, doublings); got != want {
			t.Errorf("backoff(300, %d) = %g, want %g", doublings, got, want)
		}
	}
	if got := backoff(5000, 10); got != 5000 {
		t.Errorf("backoff(5000, 10) = %g, want the base above the ceiling, 5000", got)
	}
}
