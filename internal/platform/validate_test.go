package platform

import (
	"math"
	"strings"
	"testing"

	"pckpt/internal/lm"
)

// TestValidateRejects: every range check of Validate fails its field,
// NaN and +Inf included (a NaN compares false with everything, so a
// plain range check passes it), and the error names the field and the
// offending value.
func TestValidateRejects(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"negative-lead-scale", func(c *Config) { c.LeadScale = -1 }, "lead scale -1"},
		{"nan-lead-scale", func(c *Config) { c.LeadScale = nan }, "lead scale NaN"},
		{"inf-lead-scale", func(c *Config) { c.LeadScale = inf }, "lead scale +Inf"},
		{"fn-above-one", func(c *Config) { c.FNRate = 1.5 }, "FN rate 1.5"},
		{"nan-fn", func(c *Config) { c.FNRate = nan }, "FN rate NaN"},
		{"inf-fn", func(c *Config) { c.FNRate = inf }, "FN rate +Inf"},
		{"negative-fp", func(c *Config) { c.FPRate = -0.1 }, "FP rate -0.1"},
		{"nan-fp", func(c *Config) { c.FPRate = nan }, "FP rate NaN"},
		{"inf-fp", func(c *Config) { c.FPRate = inf }, "FP rate +Inf"},
		{"nan-lm-alpha", func(c *Config) { c.LM = lm.Default().WithAlpha(nan) }, "alpha NaN"},
		{"inf-lm-alpha", func(c *Config) { c.LM = lm.Default().WithAlpha(inf) }, "alpha +Inf"},
		{"negative-spares", func(c *Config) { c.SpareNodes = -1 }, "spare-node count"},
	} {
		cfg := testConfig()
		c.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
