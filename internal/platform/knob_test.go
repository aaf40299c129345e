package platform_test

import (
	"reflect"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/iomodel"
	"pckpt/internal/lm"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
	"pckpt/internal/workload"
)

// TestEveryConfigFieldMovesAnOutput is the platform-level knob gate,
// the sibling of TestEveryModelFieldMovesAnOutput: each field of
// platform.Config must change something a run reads. The test walks the
// struct by reflection and applies each field's listed perturbation (to
// another valid value) to crossval's small busy cell; Derive(), the
// first events of the seeded failure stream, or eight short P2 step runs
// must then differ (the spare pool binds only on a run with two
// failures, which few seeds of this cell draw). A field no tier reads fails here, and so does a new field
// with no perturbation listed.
func TestEveryConfigFieldMovesAnOutput(t *testing.T) {
	base := platform.Config{
		App:    workload.App{Name: "crossval-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24},
		System: failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48},
		// Off the default recall, so the accuracy-aware σ differs from
		// the published one.
		FNRate: 0.3,
	}
	fields := map[string]func(*platform.Config){
		"App":        func(c *platform.Config) { c.App.TotalCkptGB *= 2 },
		"System":     func(c *platform.Config) { c.System.ScaleHours = 20 },
		"SpareNodes": func(c *platform.Config) { c.SpareNodes = 1 },
		"IO": func(c *platform.Config) {
			io := iomodel.DefaultSummit()
			io.BBWriteGBs *= 2
			c.IO = iomodel.New(io)
		},
		"LM":                 func(c *platform.Config) { c.LM = lm.Default().WithAlpha(2) },
		"Leads":              func(c *platform.Config) { c.Leads = failure.DefaultLeadTimes().Scaled(2) },
		"LeadScale":          func(c *platform.Config) { c.LeadScale = 2 },
		"FNRate":             func(c *platform.Config) { c.FNRate = 0.2 },
		"FPRate":             func(c *platform.Config) { c.FPRate = 0.5 },
		"PerfectPredictor":   func(c *platform.Config) { c.PerfectPredictor = true },
		"AccuracyAwareSigma": func(c *platform.Config) { c.AccuracyAwareSigma = true },
		"Faults":             func(c *platform.Config) { c.Faults = faultinject.Config{BBWriteFailProb: 0.2} },
		"Replay": func(c *platform.Config) {
			c.Replay = &failure.Replay{
				Name: "knob", Nodes: 48, HorizonSeconds: 40 * 3600,
				Events: []failure.ReplayEvent{{T: 3600, Node: 3, Lead: 600}, {T: 7200, Node: 7}},
			}
		},
	}
	type outputs struct {
		derived platform.Derived
		events  []failure.Event
		runs    []stats.RunResult
	}
	run := func(c platform.Config) outputs {
		out := outputs{derived: c.Derive()}
		stream, _ := c.Sources(1, nil)
		for i := 0; i < 32; i++ {
			out.events = append(out.events, stream.Next())
		}
		for seed := uint64(1); seed <= 8; seed++ {
			out.runs = append(out.runs, stepsim.Simulate(stepsim.Config{Model: policy.P2, Config: c}, seed))
		}
		return out
	}
	want := run(base)
	for _, f := range reflect.VisibleFields(reflect.TypeOf(platform.Config{})) {
		perturb, ok := fields[f.Name]
		if !ok {
			t.Errorf("platform.Config.%s: no perturbation listed", f.Name)
			continue
		}
		c := base
		perturb(&c)
		if err := c.Validate(); err != nil {
			t.Fatalf("platform.Config.%s: perturbation invalid: %v", f.Name, err)
		}
		if reflect.DeepEqual(run(c), want) {
			t.Errorf("platform.Config.%s: perturbing it moves neither Derive(), the seeded stream nor a P2 step run", f.Name)
		}
	}
}
