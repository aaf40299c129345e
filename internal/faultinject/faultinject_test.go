package faultinject

import (
	"flag"
	"math"
	"testing"

	"pckpt/internal/rng"
)

func TestValidate(t *testing.T) {
	ok := Config{BBWriteFailProb: 0.1, PFSWriteFailProb: 0.5, CorruptProb: 0.99, RestartFailProb: 0.2, CascadeProb: 0}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{BBWriteFailProb: -0.1},
		{PFSWriteFailProb: 1}, // certain failure can never terminate
		{CorruptProb: 1.5},
		{RestartFailProb: math.NaN()},
		{CascadeProb: math.Inf(1)},
		{RestartRetries: -1},
		{RestartBackoffSeconds: -5},
		{RestartBackoffSeconds: math.NaN()},  // backoff > 0 is false: silently no backoff
		{RestartBackoffSeconds: math.Inf(1)}, // one failed restart never ends
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	var zero Config
	if got := zero.WithDefaults(); got != zero {
		t.Fatalf("zero config gained defaults: %+v", got)
	}
	c := Config{RestartFailProb: 0.3}.WithDefaults()
	if c.RestartRetries != DefaultRestartRetries || c.RestartBackoffSeconds != DefaultRestartBackoffSeconds {
		t.Fatalf("defaults not applied: %+v", c)
	}
	// Explicit settings survive.
	c = Config{RestartFailProb: 0.3, RestartRetries: 9, RestartBackoffSeconds: 1}.WithDefaults()
	if c.RestartRetries != 9 || c.RestartBackoffSeconds != 1 {
		t.Fatalf("explicit settings overwritten: %+v", c)
	}
}

func TestNilInjectorIsDisabledPlan(t *testing.T) {
	if in := New(Config{}, rng.New(1).Split(StreamKey), nil); in != nil {
		t.Fatal("zero config built a live injector")
	}
	var in *Injector
	if in.BBWriteFails() || in.PFSWriteFails() || in.CorruptCommit() {
		t.Fatal("nil injector injected a fault")
	}
	if fail, backoff := in.RestartAttemptFails(0); fail || backoff != 0 {
		t.Fatal("nil injector failed a restart")
	}
	if strike, frac := in.CascadeRecovery(); strike || frac != 0 {
		t.Fatal("nil injector cascaded")
	}
	in.ObserveCorruptRestarts(3)
	in.ObserveCascadeDepth(2)
}

func TestDeterministicReplay(t *testing.T) {
	cfg := Config{BBWriteFailProb: 0.3, PFSWriteFailProb: 0.3, CorruptProb: 0.3, RestartFailProb: 0.3, CascadeProb: 0.3}
	draw := func() []bool {
		in := New(cfg, rng.New(99).Split(StreamKey), nil)
		var out []bool
		for i := 0; i < 200; i++ {
			switch i % 4 {
			case 0:
				out = append(out, in.BBWriteFails())
			case 1:
				out = append(out, in.PFSWriteFails())
			case 2:
				out = append(out, in.CorruptCommit())
			case 3:
				fail, _ := in.RestartAttemptFails(0)
				out = append(out, fail)
			}
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identically seeded plans", i)
		}
	}
}

// TestZeroRateHooksConsumeNoDraws pins the bit-identity contract: a hook
// whose probability is zero must not touch the stream, so enabling the
// injector with some rates at zero leaves every other draw sequence
// exactly where it would have been.
func TestZeroRateHooksConsumeNoDraws(t *testing.T) {
	in := New(Config{CorruptProb: 0.5}, rng.New(7).Split(StreamKey), nil)
	// These are all rate-zero: no draws.
	for i := 0; i < 50; i++ {
		in.BBWriteFails()
		in.PFSWriteFails()
		in.RestartAttemptFails(i)
		in.CascadeRecovery()
	}
	want := rng.New(7).Split(StreamKey).Bool(0.5)
	if got := in.CorruptCommit(); got != want {
		t.Fatal("zero-rate hooks consumed draws from the fault stream")
	}
}

func TestRestartBackoffDoublesAndRetriesBound(t *testing.T) {
	cfg := Config{RestartFailProb: 0.999, RestartRetries: 3, RestartBackoffSeconds: 10}
	in := New(cfg, rng.New(5).Split(StreamKey), nil)
	for attempt := 0; attempt < 3; attempt++ {
		fail, backoff := in.RestartAttemptFails(attempt)
		if !fail {
			t.Fatalf("attempt %d succeeded at p=0.999 (unlucky seed; pick another)", attempt)
		}
		if want := 10 * float64(uint64(1)<<uint(attempt)); backoff != want {
			t.Fatalf("attempt %d backoff %g, want %g", attempt, backoff, want)
		}
	}
	// At the retry bound the platform is assumed recovered: guaranteed
	// success keeps every recovery finite.
	if fail, backoff := in.RestartAttemptFails(3); fail || backoff != 0 {
		t.Fatal("attempt at the retry bound did not succeed")
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config enabled")
	}
	if (Config{RestartRetries: 5, RestartBackoffSeconds: 60}).Enabled() {
		t.Fatal("rate-free config enabled")
	}
	if !(Config{CascadeProb: 0.01}).Enabled() {
		t.Fatal("nonzero rate not enabled")
	}
}

// BindFlags binds one flag per field: a parsed flag writes its field,
// an unset flag keeps the field's value, and an explicit zero survives.
func TestBindFlags(t *testing.T) {
	c := Config{CorruptProb: 0.3, RestartRetries: 7}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c.BindFlags(fs)
	if err := fs.Parse([]string{"-inject-bb", "0.1", "-inject-pfs", "0.2", "-inject-restart", "0.4",
		"-inject-cascade", "0.5", "-inject-backoff", "6", "-inject-retries", "0"}); err != nil {
		t.Fatal(err)
	}
	want := Config{BBWriteFailProb: 0.1, PFSWriteFailProb: 0.2, CorruptProb: 0.3, RestartFailProb: 0.4,
		CascadeProb: 0.5, RestartBackoffSeconds: 6}
	if c != want {
		t.Fatalf("bound plan %+v, want %+v", c, want)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 7 {
		t.Fatalf("BindFlags bound %d flags, want one per field (7)", n)
	}
}
