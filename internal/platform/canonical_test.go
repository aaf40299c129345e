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
	if !strings.HasPrefix(s, "platform/v6\n") {
		t.Fatalf("missing version header: %q", s[:min(len(s), 40)])
	}
	if s != c.CanonicalString() {
		t.Fatal("rendering not stable across calls")
	}
}

// TestCanonicalStringText pins the rendering byte for byte: the text is
// the platform half of every cache key, so stores written by earlier
// builds stay valid only while it stays as it is.
func TestCanonicalStringText(t *testing.T) {
	const leads = "leads=1:4900:43.3:0.026;2:1300:32:0.12;3:550:95:0.8;4:70:320:1;5:1100:25:0.05;6:450:22:0.05;7:1250:18.5:0.08;8:250:12:0.25;9:80:6:0.4;10:50:9:0.3\n"
	c := testConfig()
	want := "platform/v6\napp=CHIMERA|2272|646382|360\nsystem=OLCF Titan|0.6885|5.4527|18868\nspares=0\nio=2.1|5.5|13.5|2500|8|42|0.25|512\nlm=3|512|12.5|0.015\n" +
		leads + "leadscale=1\npredictor=0.125|0.18|false\naccuracy-aware-sigma=false\nfaults=0|0|0|0|0|0|0\nreplay=none\n"
	if got := c.CanonicalString(); got != want {
		t.Errorf("default config renders\n%q\nwant\n%q", got, want)
	}
	c.Faults = faultinject.Config{PFSWriteFailProb: 0.05, RestartRetries: 2}
	c.PerfectPredictor = true
	c.AccuracyAwareSigma = true
	c.SpareNodes = 3
	c.LM = lm.Default().WithAlpha(2.5)
	c.LeadScale = 0.1
	want = "platform/v6\napp=CHIMERA|2272|646382|360\nsystem=OLCF Titan|0.6885|5.4527|18868\nspares=3\nio=2.1|5.5|13.5|2500|8|42|0.25|512\nlm=2.5|512|12.5|0.015\n" +
		leads + "leadscale=0.1\npredictor=0|0|true\naccuracy-aware-sigma=true\nfaults=0|0.05|0|0|2|0|0\nreplay=none\n"
	if got := c.CanonicalString(); got != want {
		t.Errorf("perturbed config renders\n%q\nwant\n%q", got, want)
	}
}

// TestAppendCanonicalAllocsZero: rendering a key into a buffer with room
// for it allocates nothing when the configuration replays no trace, so a
// plan renders each cell's key without garbage.
func TestAppendCanonicalAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without -race (make allocs)")
	}
	c := testConfig()
	c.Faults = faultinject.Config{PFSWriteFailProb: 0.05}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { buf = c.AppendCanonical(buf[:0]) }); n != 0 {
		t.Fatalf("AppendCanonical into a %d-byte buffer allocated %v times per call, want 0", cap(buf), n)
	}
	if string(buf) != c.CanonicalString() {
		t.Fatal("AppendCanonical and CanonicalString render different text")
	}
}
