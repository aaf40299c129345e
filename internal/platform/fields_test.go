package platform

import (
	"fmt"
	"reflect"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/iomodel"
	"pckpt/internal/lm"
	"pckpt/internal/workload"
)

// TestEveryModelFieldMovesAnOutput: each field of the I/O and migration
// models must change something a simulation reads. The test walks both
// structs by reflection and applies each field's listed perturbation (to
// another valid value); at least one Table I app must then see a change
// in Derive(), in its Fig. 2b curve (SingleNodeBandwidth over every task
// count at the app's per-node size) or in the migration's
// DilationSeconds. A field nothing reads fails here, and so does a new
// field with no perturbation listed.
func TestEveryModelFieldMovesAnOutput(t *testing.T) {
	ioFields := map[string]func(*iomodel.Config){
		"BBWriteGBs":             func(c *iomodel.Config) { c.BBWriteGBs *= 2 },
		"BBReadGBs":              func(c *iomodel.Config) { c.BBReadGBs *= 2 },
		"NodePFSPeakGBs":         func(c *iomodel.Config) { c.NodePFSPeakGBs /= 2 },
		"AggregatePFSCeilingGBs": func(c *iomodel.Config) { c.AggregatePFSCeilingGBs /= 10 },
		"OptimalTasks":           func(c *iomodel.Config) { c.OptimalTasks = 4 },
		"MaxTasks":               func(c *iomodel.Config) { c.MaxTasks = 16 },
		"HalfSaturationGB":       func(c *iomodel.Config) { c.HalfSaturationGB *= 4 },
		"DrainConcurrency":       func(c *iomodel.Config) { c.DrainConcurrency = 8 },
	}
	lmFields := map[string]func(*lm.Config){
		"Alpha":      func(c *lm.Config) { c.Alpha = 2 },
		"RAMCapGB":   func(c *lm.Config) { c.RAMCapGB = 128 }, // binds for CHIMERA and XGC (3× footprint > 128 GB)
		"NetworkGBs": func(c *lm.Config) { c.NetworkGBs /= 2 },
		"Dilation":   func(c *lm.Config) { c.Dilation *= 2 },
	}
	outputs := func(io iomodel.Config, lmc lm.Config) []string {
		m := iomodel.New(io)
		var out []string
		for _, app := range workload.Summit() {
			c := Config{App: app, System: failure.Titan, IO: m, LM: lmc}
			curve := make([]float64, 0, 42)
			for tasks := 1; tasks <= 42; tasks++ {
				curve = append(curve, m.SingleNodeBandwidth(tasks, app.PerNodeGB()))
			}
			out = append(out, fmt.Sprintf("%+v %v %v", c.Derive(), curve, lmc.DilationSeconds(app.PerNodeGB())))
		}
		return out
	}
	base := outputs(iomodel.DefaultSummit(), lm.Default())
	check := func(model, field string, io iomodel.Config, lmc lm.Config) {
		t.Helper()
		if err := io.Validate(); err != nil {
			t.Fatalf("%s.%s: perturbation invalid: %v", model, field, err)
		}
		if err := lmc.Validate(); err != nil {
			t.Fatalf("%s.%s: perturbation invalid: %v", model, field, err)
		}
		if reflect.DeepEqual(outputs(io, lmc), base) {
			t.Errorf("%s.%s: perturbing it moves no Table I app's derivation, Fig. 2b curve or dilation", model, field)
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(iomodel.Config{})) {
		perturb, ok := ioFields[f.Name]
		if !ok {
			t.Errorf("iomodel.Config.%s: no perturbation listed", f.Name)
			continue
		}
		io := iomodel.DefaultSummit()
		perturb(&io)
		check("iomodel.Config", f.Name, io, lm.Default())
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(lm.Config{})) {
		perturb, ok := lmFields[f.Name]
		if !ok {
			t.Errorf("lm.Config.%s: no perturbation listed", f.Name)
			continue
		}
		lmc := lm.Default()
		perturb(&lmc)
		check("lm.Config", f.Name, iomodel.DefaultSummit(), lmc)
	}
}
