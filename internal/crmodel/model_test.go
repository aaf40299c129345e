package crmodel

import (
	"math"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/lm"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/workload"
)

func TestModelStrings(t *testing.T) {
	want := map[Model]string{ModelB: "B", ModelM1: "M1", ModelM2: "M2", ModelP1: "P1", ModelP2: "P2"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
}

func TestModelByName(t *testing.T) {
	for _, m := range policy.All() {
		got, err := ModelByName(m.String())
		if err != nil || got != m {
			t.Errorf("ModelByName(%s) = %v, %v", m, got, err)
		}
	}
	if _, err := ModelByName("Z9"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestModelCapabilities(t *testing.T) {
	cases := []struct {
		m        Model
		pred, lm bool
	}{
		{ModelB, false, false},
		{ModelM1, true, false},
		{ModelM2, true, true},
		{ModelP1, true, false},
		{ModelP2, true, true},
	}
	for _, c := range cases {
		if c.m.UsesPrediction() != c.pred || c.m.UsesLM() != c.lm {
			t.Errorf("capabilities wrong for %s", c.m)
		}
	}
}

func testApp(t *testing.T, name string) workload.App {
	t.Helper()
	a, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Model: ModelP2, Config: platform.Config{App: testApp(t, "POP"), System: failure.Titan}}
	d := cfg.withDefaults()
	if d.IO == nil || d.Leads == nil || d.LeadScale != 1 {
		t.Fatal("defaults not applied")
	}
	if d.FNRate != failure.DefaultFNRate || d.FPRate != failure.DefaultFPRate {
		t.Fatalf("predictor defaults wrong: fn=%g fp=%g", d.FNRate, d.FPRate)
	}
	if d.LM != lm.Default() {
		t.Fatal("LM default not applied")
	}
}

func TestPerfectPredictorOverrides(t *testing.T) {
	cfg := Config{Model: ModelP1, Config: platform.Config{App: testApp(t, "POP"), System: failure.Titan, PerfectPredictor: true}}
	d := cfg.withDefaults()
	if d.FNRate != 0 || d.FPRate != 0 {
		t.Fatalf("perfect predictor not honoured: fn=%g fp=%g", d.FNRate, d.FPRate)
	}
}

func TestConfigValidate(t *testing.T) {
	ok := Config{Model: ModelP2, Config: platform.Config{App: testApp(t, "XGC"), System: failure.Titan}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Model: ModelP2, Config: platform.Config{App: workload.App{}, System: failure.Titan}},
		{Model: ModelP2, Config: platform.Config{App: testApp(t, "XGC"), System: failure.System{}}},
		{Model: ModelP2, Config: platform.Config{App: testApp(t, "XGC"), System: failure.Titan, LeadScale: -1}},
		{Model: ModelP2, Config: platform.Config{App: testApp(t, "XGC"), System: failure.Titan, FNRate: 2}},
		{Model: ModelP2, Config: platform.Config{App: testApp(t, "XGC"), System: failure.Titan, FPRate: 1}},
		{Model: 99, Config: platform.Config{App: testApp(t, "XGC"), System: failure.Titan}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestThetaMatchesLMModel(t *testing.T) {
	app := testApp(t, "CHIMERA")
	cfg := Config{Model: ModelP2, Config: platform.Config{App: app, System: failure.Titan}}
	want := lm.Default().Theta(app.PerNodeGB())
	if got := cfg.Theta(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Theta = %g, want %g", got, want)
	}
	// CHIMERA's θ is RAM-capped at ≈41 s — the calibration anchor.
	if got := cfg.Theta(); got < 40.5 || got > 41.5 {
		t.Fatalf("CHIMERA θ = %.2f, want ≈41", got)
	}
}

// sigma is the σ a run of c prices its OCI with: the one gate,
// policy.ID.Sigma, over the run's derivation.
func sigma(c Config) float64 { return c.Model.Sigma(c.Derive()) }

func TestSigmaZeroWithoutLM(t *testing.T) {
	app := testApp(t, "CHIMERA")
	for _, m := range []Model{ModelB, ModelM1, ModelP1} {
		if s := sigma(Config{Model: m, Config: platform.Config{App: app, System: failure.Titan}}); s != 0 {
			t.Errorf("%s sigma = %g, want 0", m, s)
		}
	}
}

func TestSigmaUsesBaselineRecall(t *testing.T) {
	app := testApp(t, "CHIMERA")
	base := Config{Model: ModelP2, Config: platform.Config{App: app, System: failure.Titan}}
	moreFN := base
	moreFN.FNRate = 0.4
	// Eq. (2) ignores the configured accuracy (Observation 9): σ must not
	// change when the actual FN rate does.
	if a, b := sigma(base), sigma(moreFN); a != b {
		t.Fatalf("sigma changed with FN rate: %g vs %g", a, b)
	}
	if s := sigma(base); s < 0.40 || s < 0 || s > 0.60 {
		t.Fatalf("CHIMERA σ = %.3f, want ≈0.47", s)
	}
}

func TestSigmaScalesWithLeads(t *testing.T) {
	app := testApp(t, "CHIMERA")
	lo := Config{Model: ModelP2, Config: platform.Config{App: app, System: failure.Titan, LeadScale: 0.5}}
	hi := Config{Model: ModelP2, Config: platform.Config{App: app, System: failure.Titan, LeadScale: 1.5}}
	if sigma(lo) >= sigma(hi) {
		t.Fatalf("sigma not increasing with lead scale: %g vs %g", sigma(lo), sigma(hi))
	}
}

func TestAccuracyAwareSigma(t *testing.T) {
	app := testApp(t, "CHIMERA")
	published := Config{Model: ModelP2, Config: platform.Config{App: app, System: failure.Titan, FNRate: 0.4}}
	aware := published
	aware.AccuracyAwareSigma = true
	// The published σ ignores the degraded recall; the accuracy-aware
	// variant must shrink σ proportionally: (1−0.4)/(1−0.125).
	ratio := sigma(aware) / sigma(published)
	want := (1 - 0.4) / (1 - failure.DefaultFNRate)
	if math.Abs(ratio-want) > 1e-9 {
		t.Fatalf("accuracy-aware σ ratio %.4f, want %.4f", ratio, want)
	}
	// At the baseline FN rate the two variants agree.
	base := Config{Model: ModelP2, Config: platform.Config{App: app, System: failure.Titan}}
	baseAware := base
	baseAware.AccuracyAwareSigma = true
	if sigma(base) != sigma(baseAware) {
		t.Fatal("variants must agree at the baseline FN rate")
	}
}
