// Package scenario is the declarative experiment layer: a JSON spec
// names an application cohort (Table I entries, custom apps, Eq. (3)
// rescalings), a platform block, a failure source (parametric Table III
// catalogue or a replayed trace), a policy list, and a run/seed plan —
// and compiles to the exact platform.Config values the flag-driven tools
// build, so a spec-configured run is bit-identical to its flag-configured
// twin. Specs have a strict parser (unknown fields are errors), a
// validator that never panics on malformed input, and a canonical JSON
// rendering (Render) that is a fixed point. A spec's cells key the
// result cache by their platform.Config canonical text, like every other
// cell.
package scenario

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/lm"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/workload"
)

// ScaleSpec rescales an application to a target system via Eq. (3):
// checkpoint footprint scales with both node count and per-node DRAM.
type ScaleSpec struct {
	// Nodes is the target node count.
	Nodes int `json:"nodes"`
	// OldDRAMGB is the per-node DRAM of the system the footprint was
	// measured on; zero selects Summit's 512 GB (lm.Config.RAMCapGB).
	OldDRAMGB float64 `json:"old_dram_gb,omitempty"`
	// NewDRAMGB is the target per-node DRAM; zero selects the source DRAM
	// (pure node-count scaling).
	NewDRAMGB float64 `json:"new_dram_gb,omitempty"`
}

// AppSpec names one cohort member: a Table I catalogue entry ("name"
// alone), a custom application (all of nodes / total_ckpt_gb /
// compute_hours), either optionally rescaled via "scale".
type AppSpec struct {
	// Name is the catalogue name, or the custom application's label.
	Name string `json:"name"`
	// Nodes, TotalCkptGB, ComputeHours define a custom application; give
	// all three or none.
	Nodes        int     `json:"nodes,omitempty"`
	TotalCkptGB  float64 `json:"total_ckpt_gb,omitempty"`
	ComputeHours float64 `json:"compute_hours,omitempty"`
	// Scale optionally rescales the application via Eq. (3).
	Scale *ScaleSpec `json:"scale,omitempty"`
}

// custom reports whether the entry defines its own characteristics
// (vs naming a catalogue row).
func (a AppSpec) custom() bool {
	return a.Nodes != 0 || a.TotalCkptGB != 0 || a.ComputeHours != 0
}

// Resolve materialises the entry as a concrete application.
func (a AppSpec) Resolve() (workload.App, error) {
	var app workload.App
	if a.custom() {
		app = workload.App{Name: a.Name, Nodes: a.Nodes, TotalCkptGB: a.TotalCkptGB, ComputeHours: a.ComputeHours}
		if err := finite(map[string]float64{"total_ckpt_gb": a.TotalCkptGB, "compute_hours": a.ComputeHours}); err != nil {
			return workload.App{}, fmt.Errorf("scenario: app %q: %w", a.Name, err)
		}
		if err := app.Validate(); err != nil {
			return workload.App{}, fmt.Errorf("scenario: %w", err)
		}
	} else {
		var err error
		if app, err = workload.ByName(a.Name); err != nil {
			return workload.App{}, fmt.Errorf("scenario: %w", err)
		}
	}
	if s := a.Scale; s != nil {
		oldDRAM := s.OldDRAMGB
		if oldDRAM == 0 {
			oldDRAM = lm.Default().RAMCapGB
		}
		newDRAM := s.NewDRAMGB
		if newDRAM == 0 {
			newDRAM = oldDRAM
		}
		// Pre-check what ScaleEq3 would panic on: Validate must reject,
		// never crash.
		if s.Nodes <= 0 || !(oldDRAM > 0) || !(newDRAM > 0) ||
			math.IsInf(oldDRAM, 0) || math.IsInf(newDRAM, 0) {
			return workload.App{}, fmt.Errorf("scenario: app %q: non-positive Eq. (3) scale parameter", a.Name)
		}
		app = workload.ScaleApp(app, s.Nodes, oldDRAM, newDRAM)
	}
	return app, nil
}

// PlatformSpec is the platform block: predictor, lead-time scaling,
// migration model, and fault plan. Zero fields select the same defaults
// the flag-driven tools use.
type PlatformSpec struct {
	// LeadScale stretches lead times (0 = 1.0).
	LeadScale float64 `json:"lead_scale,omitempty"`
	// FNRate / FPRate configure the predictor (0 = the defaults 0.125 /
	// 0.18; for a zero-error predictor set perfect_predictor).
	FNRate float64 `json:"fn_rate,omitempty"`
	FPRate float64 `json:"fp_rate,omitempty"`
	// PerfectPredictor forces FN = FP = 0.
	PerfectPredictor bool `json:"perfect_predictor,omitempty"`
	// AccuracyAwareSigma enables the Observation 9 extension.
	AccuracyAwareSigma bool `json:"accuracy_aware_sigma,omitempty"`
	// LMAlpha is the live-migration transfer/checkpoint ratio (0 = 3.0).
	LMAlpha float64 `json:"lm_alpha,omitempty"`
	// Faults is the degraded-platform fault plan; its keys are
	// faultinject.Config's JSON tags.
	Faults *faultinject.Config `json:"faults,omitempty"`
}

// FailureSpec selects the failure source: a Table III catalogue entry
// ("system"), or a replayed trace (inline "trace", or an external file
// via "trace_file" — resolved by Load relative to the spec). Exactly one
// of the three; an absent block selects the default catalogue entry.
type FailureSpec struct {
	// System names a Table III failure distribution.
	System string `json:"system,omitempty"`
	// Trace is an inline failure trace to replay.
	Trace *Trace `json:"trace,omitempty"`
	// TraceFile references a trace JSON file, relative to the spec file.
	// Load resolves it into Trace; a spec parsed from bytes must carry
	// its trace inline.
	TraceFile string `json:"trace_file,omitempty"`
}

// DefaultSystem is the parametric failure source a spec (like the flag
// tools) selects when its failures block names none.
const DefaultSystem = "OLCF Titan"

// Spec is one declarative scenario: what to run (cohort × policies), on
// what platform, against which failure reality, how many runs, from which
// seed.
type Spec struct {
	// Version is the spec format version; 1 is the only version.
	Version int `json:"version"`
	// Name identifies the scenario (cache keys, output labels).
	Name string `json:"name"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// Apps is the application cohort; at least one entry.
	Apps []AppSpec `json:"apps"`
	// Platform is the platform block; absent selects all defaults.
	Platform *PlatformSpec `json:"platform,omitempty"`
	// Failures selects the failure source; absent selects DefaultSystem.
	Failures *FailureSpec `json:"failures,omitempty"`
	// Policies lists the C/R policies to simulate; absent selects the
	// full catalogue (B, M1, M2, P1, P2).
	Policies []string `json:"policies,omitempty"`
	// Machine, when present, runs the cohort × policy cells as tenants of
	// one shared machine (node pool, PFS bandwidth ceiling, drain slots)
	// instead of independent solo sweeps.
	Machine *MachineSpec `json:"machine,omitempty"`
	// Runs is the per-configuration run count (0 = 200, the pckpt-sim
	// default).
	Runs int `json:"runs,omitempty"`
	// Seed is the base RNG seed (0 = 42, the pckpt-sim default).
	Seed uint64 `json:"seed,omitempty"`
}

// Parse strictly decodes one JSON spec: unknown fields and trailing data
// are errors. The result is not yet normalized or validated, and any
// trace_file reference is left unresolved (use Load for that).
func Parse(data []byte) (*Spec, error) {
	var s Spec
	if err := strictDecode(data, &s); err != nil {
		return nil, fmt.Errorf("scenario: spec: %w", err)
	}
	return &s, nil
}

// Load reads, parses, trace-resolves, normalizes, and validates a spec
// file. A trace_file reference is read relative to the spec's directory.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f := s.Failures; f != nil && f.TraceFile != "" {
		if f.Trace != nil {
			return nil, fmt.Errorf("%s: scenario: both trace and trace_file given", path)
		}
		t, err := LoadTrace(filepath.Join(filepath.Dir(path), f.TraceFile))
		if err != nil {
			return nil, err
		}
		f.Trace = t
	}
	s = s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Normalize returns a copy with every zero field replaced by its
// effective default, so two specs that simulate identically normalize
// identically (the canonical rendering applies it first). Idempotent. A resolved inline trace supersedes its trace_file
// reference, so the rendering is independent of file layout.
func (s *Spec) Normalize() *Spec {
	n := *s
	if n.Version == 0 {
		n.Version = 1
	}
	n.Apps = append([]AppSpec(nil), s.Apps...)
	if n.Platform == nil {
		n.Platform = &PlatformSpec{}
	} else {
		p := *n.Platform
		n.Platform = &p
	}
	p := n.Platform
	if p.LeadScale == 0 {
		p.LeadScale = 1
	}
	if p.PerfectPredictor {
		p.FNRate, p.FPRate = 0, 0
	} else {
		if p.FNRate == 0 {
			p.FNRate = failure.DefaultFNRate
		}
		if p.FPRate == 0 {
			p.FPRate = failure.DefaultFPRate
		}
	}
	if p.LMAlpha == 0 {
		p.LMAlpha = lm.DefaultAlpha
	}
	if n.Failures == nil {
		n.Failures = &FailureSpec{}
	} else {
		f := *n.Failures
		n.Failures = &f
	}
	f := n.Failures
	if f.Trace != nil {
		f.TraceFile = "" // content is authoritative once resolved
	}
	if f.System == "" && f.Trace == nil && f.TraceFile == "" {
		f.System = DefaultSystem
	}
	if len(n.Policies) == 0 {
		for _, id := range policy.All() {
			n.Policies = append(n.Policies, id.String())
		}
	} else {
		n.Policies = append([]string(nil), s.Policies...)
	}
	n.Machine = normalizeMachine(s.Machine)
	if n.Runs == 0 {
		n.Runs = 200
	}
	if n.Seed == 0 {
		n.Seed = 42
	}
	return &n
}

// RunConfig is one compiled (application, policy) cell of a scenario:
// exactly what one pckpt-sim invocation simulates.
type RunConfig struct {
	// Label identifies the cohort member within the spec (the resolved
	// application name, index-suffixed on duplicates).
	Label string
	// Policy is the C/R policy to simulate.
	Policy policy.ID
	// Platform is the fully-compiled platform configuration.
	Platform platform.Config
}

// Configs compiles the spec into its cohort × policy grid, validating
// everything on the way: a nil error means every returned configuration
// passes platform validation and is safe to simulate. Order is
// deterministic: cohort order, then policy order, both as written.
func (s *Spec) Configs() ([]RunConfig, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	n := s.Normalize()
	pols := make([]policy.ID, len(n.Policies))
	seenPol := map[policy.ID]bool{}
	for i, name := range n.Policies {
		id, err := policy.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		if seenPol[id] {
			return nil, fmt.Errorf("scenario: duplicate policy %s", id)
		}
		seenPol[id] = true
		pols[i] = id
	}

	var sys failure.System
	var replay *failure.Replay
	f := n.Failures
	switch {
	case f.Trace != nil && f.System != "":
		return nil, fmt.Errorf("scenario: failures block gives both a system and a trace")
	case f.TraceFile != "":
		return nil, fmt.Errorf("scenario: trace_file %q unresolved (Load resolves it relative to the spec)", f.TraceFile)
	case f.Trace != nil:
		if err := f.Trace.Validate(); err != nil {
			return nil, err
		}
		replay = &f.Trace.Replay
	default:
		var err error
		if sys, err = failure.SystemByName(f.System); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}

	var faults faultinject.Config
	if n.Platform.Faults != nil {
		faults = *n.Platform.Faults
	}
	labels := map[string]int{}
	var out []RunConfig
	for _, as := range n.Apps {
		app, err := as.Resolve()
		if err != nil {
			return nil, err
		}
		label := app.Name
		labels[label]++
		if k := labels[label]; k > 1 {
			label = fmt.Sprintf("%s#%d", label, k)
		}
		pc := platform.Config{
			App:                app,
			System:             sys,
			LM:                 lm.Default().WithAlpha(n.Platform.LMAlpha),
			LeadScale:          n.Platform.LeadScale,
			FNRate:             n.Platform.FNRate,
			FPRate:             n.Platform.FPRate,
			PerfectPredictor:   n.Platform.PerfectPredictor,
			AccuracyAwareSigma: n.Platform.AccuracyAwareSigma,
			Faults:             faults,
			Replay:             replay,
		}
		if err := pc.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: app %q: %w", app.Name, err)
		}
		for _, id := range pols {
			out = append(out, RunConfig{Label: label, Policy: id, Platform: pc})
		}
	}
	return out, nil
}

// Validate reports the first problem that would keep the spec from
// simulating, or nil. It never panics, whatever the input. Purely
// in-memory: an unresolved trace_file is an error here (Load resolves).
func (s *Spec) Validate() error {
	if _, err := s.Configs(); err != nil {
		return err
	}
	if s.Machine != nil {
		if _, err := s.MachineConfig(); err != nil {
			return err
		}
	}
	return nil
}

// check verifies the spec skeleton before compilation.
func (s *Spec) check() error {
	if s == nil {
		return fmt.Errorf("scenario: nil spec")
	}
	if v := s.Version; v != 0 && v != 1 {
		return fmt.Errorf("scenario: unsupported spec version %d (want 1)", v)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	for _, r := range s.Name {
		if r == '\n' || r == '\r' {
			return fmt.Errorf("scenario: spec name contains a line break")
		}
	}
	if len(s.Apps) == 0 {
		return fmt.Errorf("scenario: empty application cohort")
	}
	if s.Runs < 0 {
		return fmt.Errorf("scenario: negative run count")
	}
	// The platform block needs no check here: Configs validates every
	// compiled platform.Config, which rejects non-finite values.
	return checkMachine(s.Machine)
}

// finite rejects NaN and ±Inf field values: JSON cannot encode them, but
// specs are also built programmatically, and a NaN rate would slip
// through range checks (every comparison on it is false).
func finite(fields map[string]float64) error {
	for name, v := range fields {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("field %s is %v", name, v)
		}
	}
	return nil
}
