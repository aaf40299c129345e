package platform

import (
	"strings"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/iomodel"
	"pckpt/internal/lm"
	"pckpt/internal/workload"
)

func testConfig() Config {
	return Config{App: workload.Summit()[0], System: failure.Titan}
}

// The canonical rendering must not distinguish a zero field from its
// explicit default — otherwise the same simulation would hash to two
// cache entries.
func TestCanonicalStringDefaultInsensitive(t *testing.T) {
	zero := testConfig()
	explicit := testConfig()
	explicit.IO = iomodel.New(iomodel.DefaultSummit())
	explicit.LM = lm.Default()
	explicit.Leads = failure.DefaultLeadTimes()
	explicit.LeadScale = 1
	explicit.FNRate = failure.DefaultFNRate
	explicit.FPRate = failure.DefaultFPRate
	explicit.OCIRefreshSeconds = 3600
	if zero.CanonicalString() != explicit.CanonicalString() {
		t.Fatalf("zero-valued and explicitly defaulted configs render differently:\n%s\nvs\n%s",
			zero.CanonicalString(), explicit.CanonicalString())
	}
}

// Every simulation-relevant field must perturb the rendering.
func TestCanonicalStringSensitivity(t *testing.T) {
	base := testConfig().CanonicalString()
	mutations := map[string]func(*Config){
		"app":            func(c *Config) { c.App = workload.Summit()[1] },
		"app-nodes":      func(c *Config) { c.App.Nodes++ },
		"system":         func(c *Config) { c.System = failure.LANLSystem18 },
		"system-shape":   func(c *Config) { c.System.Shape += 0.001 },
		"spare-nodes":    func(c *Config) { c.SpareNodes = 3 },
		"lm-alpha":       func(c *Config) { c.LM = lm.Default().WithAlpha(2.5) },
		"lead-scale":     func(c *Config) { c.LeadScale = 1.1 },
		"fn-rate":        func(c *Config) { c.FNRate = 0.3 },
		"fp-rate":        func(c *Config) { c.FPRate = 0.01 },
		"perfect":        func(c *Config) { c.PerfectPredictor = true },
		"oci-refresh":    func(c *Config) { c.OCIRefreshSeconds = 60 },
		"accuracy-aware": func(c *Config) { c.AccuracyAwareSigma = true },
		"io": func(c *Config) {
			io := iomodel.DefaultSummit()
			io.BBWriteGBs *= 2
			c.IO = iomodel.New(io)
		},
		"leads": func(c *Config) { c.Leads = failure.DefaultLeadTimes().Scaled(2) },
		"faults": func(c *Config) {
			c.Faults = faultinject.Config{PFSWriteFailProb: 0.05}
		},
		"replay": func(c *Config) {
			c.Replay = &failure.Replay{
				Name: "t", Nodes: 1, HorizonSeconds: 10,
				Events: []failure.ReplayEvent{{T: 5}},
			}
		},
	}
	for name, mutate := range mutations {
		c := testConfig()
		mutate(&c)
		if got := c.CanonicalString(); got == base {
			t.Errorf("mutation %q does not change the canonical rendering", name)
		}
	}
}

// The rendering is versioned and stable across calls.
func TestCanonicalStringVersionedAndStable(t *testing.T) {
	c := testConfig()
	s := c.CanonicalString()
	if !strings.HasPrefix(s, "platform/v5\n") {
		t.Fatalf("missing version header: %q", s[:min(len(s), 40)])
	}
	if s != c.CanonicalString() {
		t.Fatal("rendering not stable across calls")
	}
}
