package scenario

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pckpt/internal/crmodel"
	"pckpt/internal/failure"
	"pckpt/internal/faultinject"
	"pckpt/internal/lm"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
	"pckpt/internal/workload"
)

const minimalSpec = `{
  "version": 1,
  "name": "minimal",
  "apps": [{"name": "VULCAN"}],
  "policies": ["B", "P2"],
  "runs": 3
}`

func mustParse(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return s
}

func TestParseStrict(t *testing.T) {
	if _, err := Parse([]byte(`{"version": 1, "nmae": "typo"}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Parse([]byte(minimalSpec + `{"more": 1}`)); err == nil {
		t.Error("trailing data accepted")
	}
	if _, err := Parse([]byte(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestValidateMinimal(t *testing.T) {
	s := mustParse(t, minimalSpec)
	if err := s.Validate(); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
	cfgs, err := s.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 {
		t.Fatalf("got %d configs, want 2 (1 app × 2 policies)", len(cfgs))
	}
	if cfgs[0].Label != "VULCAN" || cfgs[0].Policy != policy.B || cfgs[1].Policy != policy.P2 {
		t.Fatalf("unexpected grid: %+v", cfgs)
	}
	if got := cfgs[0].Platform.System.Name; got != DefaultSystem {
		t.Fatalf("default system %q, want %q", got, DefaultSystem)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Spec){
		"no-name":       func(s *Spec) { s.Name = "" },
		"newline-name":  func(s *Spec) { s.Name = "a\nb" },
		"bad-version":   func(s *Spec) { s.Version = 2 },
		"empty-cohort":  func(s *Spec) { s.Apps = nil },
		"unknown-app":   func(s *Spec) { s.Apps = []AppSpec{{Name: "NOPE"}} },
		"half-custom":   func(s *Spec) { s.Apps = []AppSpec{{Name: "X", Nodes: 4}} },
		"negative-ckpt": func(s *Spec) { s.Apps = []AppSpec{{Name: "X", Nodes: 4, TotalCkptGB: -1, ComputeHours: 1}} },
		"nan-ckpt": func(s *Spec) {
			s.Apps = []AppSpec{{Name: "X", Nodes: 4, TotalCkptGB: math.NaN(), ComputeHours: 1}}
		},
		"bad-scale":      func(s *Spec) { s.Apps[0].Scale = &ScaleSpec{Nodes: -3} },
		"nan-scale-dram": func(s *Spec) { s.Apps[0].Scale = &ScaleSpec{Nodes: 3, NewDRAMGB: math.NaN()} },
		"unknown-policy": func(s *Spec) { s.Policies = []string{"B", "Z9"} },
		"dup-policy":     func(s *Spec) { s.Policies = []string{"B", "B"} },
		"unknown-system": func(s *Spec) { s.Failures = &FailureSpec{System: "nope"} },
		"system-and-trace": func(s *Spec) {
			s.Failures = &FailureSpec{System: DefaultSystem, Trace: testTrace()}
		},
		"unresolved-trace-file": func(s *Spec) { s.Failures = &FailureSpec{TraceFile: "x.json"} },
		"invalid-trace": func(s *Spec) {
			tr := testTrace()
			tr.Events[0].T = -5
			s.Failures = &FailureSpec{Trace: tr}
		},
		"negative-runs":  func(s *Spec) { s.Runs = -1 },
		"nan-lead-scale": func(s *Spec) { s.Platform = &PlatformSpec{LeadScale: math.NaN()} },
		"inf-alpha":      func(s *Spec) { s.Platform = &PlatformSpec{LMAlpha: math.Inf(1)} },
		"bad-fn":         func(s *Spec) { s.Platform = &PlatformSpec{FNRate: 1.5} },
		"nan-fault": func(s *Spec) {
			s.Platform = &PlatformSpec{Faults: &faultinject.Config{CorruptProb: math.NaN()}}
		},
		"bad-fault": func(s *Spec) {
			s.Platform = &PlatformSpec{Faults: &faultinject.Config{CorruptProb: 1.5}}
		},
		"nan-backoff": func(s *Spec) {
			s.Platform = &PlatformSpec{Faults: &faultinject.Config{RestartFailProb: 0.5, RestartBackoffSeconds: math.NaN()}}
		},
		"inf-backoff": func(s *Spec) {
			s.Platform = &PlatformSpec{Faults: &faultinject.Config{RestartFailProb: 0.5, RestartBackoffSeconds: math.Inf(1)}}
		},
	}
	for name, mutate := range cases {
		s := mustParse(t, minimalSpec)
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
	var nilSpec *Spec
	if err := nilSpec.Validate(); err == nil {
		t.Error("nil spec accepted")
	}
	// A non-finite platform value reaches platform.Config.Validate, whose
	// error names the field and the value.
	for name, want := range map[string]string{"nan-lead-scale": "lead scale NaN", "inf-alpha": "alpha +Inf"} {
		s := mustParse(t, minimalSpec)
		cases[name](s)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", name, err, want)
		}
	}
}

// A spec compiled with all defaults must be bit-identical to the config
// cmd/pckpt-sim builds from its flags: same canonical platform rendering,
// same simulated results.
func TestFlagEquivalence(t *testing.T) {
	s := mustParse(t, `{
	  "version": 1,
	  "name": "flag-twin",
	  "apps": [{"name": "GYRO"}],
	  "platform": {"lead_scale": 1.1, "lm_alpha": 2.5, "faults": {"pfs_write_fail_prob": 0.02}},
	  "policies": ["P2"],
	  "runs": 2,
	  "seed": 7
	}`)
	cfgs, err := s.Configs()
	if err != nil {
		t.Fatal(err)
	}
	app, _ := workload.ByName("GYRO")
	sys, _ := failure.SystemByName("OLCF Titan")
	// Exactly the construction in cmd/pckpt-sim/main.go.
	want := platform.Config{
		App:       app,
		System:    sys,
		LM:        lm.Default().WithAlpha(2.5),
		LeadScale: 1.1,
		FNRate:    failure.DefaultFNRate,
		FPRate:    failure.DefaultFPRate,
		Faults:    faultinject.Config{PFSWriteFailProb: 0.02},
	}
	if got := cfgs[0].Platform.CanonicalString(); got != want.CanonicalString() {
		t.Fatalf("spec and flag configs render differently:\n%s\nvs\n%s", got, want.CanonicalString())
	}
	specRes := crmodel.Simulate(crmodel.Config{Model: cfgs[0].Policy, Config: cfgs[0].Platform}, s.Normalize().Seed)
	flagRes := crmodel.Simulate(crmodel.Config{Model: crmodel.ModelP2, Config: want}, 7)
	if specRes != flagRes {
		t.Fatalf("spec run diverges from flag run:\n%+v\nvs\n%+v", specRes, flagRes)
	}
}

func testTrace() *Trace {
	return &Trace{
		Version: 1, Name: "unit", Nodes: 16, HorizonSeconds: 4000,
		Events: []TraceEvent{
			{T: 300, Node: 2, Lead: 120, Seq: 1},
			{T: 900, Node: 9, Lead: 60, Seq: 2, Spurious: true},
			{T: 2500, Node: 7},
			{T: 3900, Node: 11, Lead: 200, Seq: 1},
		},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := testTrace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := tr.Render()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.ToReplay().Digest() != tr.ToReplay().Digest() {
		t.Fatal("JSON round trip changes the trace")
	}
	if _, err := ParseTrace([]byte(`{"version": 1, "nodez": 3}`)); err == nil {
		t.Error("unknown trace field accepted")
	}
}

// A replay spec compiles: the trace becomes the platform's Replay, the
// synthetic system is derived from it, and the compiled config validates.
func TestReplaySpecCompiles(t *testing.T) {
	s := mustParse(t, minimalSpec)
	s.Failures = &FailureSpec{Trace: testTrace()}
	cfgs, err := s.Configs()
	if err != nil {
		t.Fatal(err)
	}
	pc := cfgs[0].Platform
	if pc.Replay == nil {
		t.Fatal("compiled config has no replay")
	}
	if pc.Replay.Digest() != testTrace().ToReplay().Digest() {
		t.Fatal("compiled replay differs from the spec's trace")
	}
	d := pc.WithDefaults()
	if !strings.HasPrefix(d.System.Name, "replay:") {
		t.Fatalf("system %q not synthesized from the trace", d.System.Name)
	}
}

// Load resolves trace_file relative to the spec's directory and inlines
// the trace; rendering afterwards is file-layout independent.
func TestLoadTraceFile(t *testing.T) {
	dir := t.TempDir()
	tr := testTrace()
	data, err := tr.Render()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	spec := `{
	  "version": 1,
	  "name": "replayed",
	  "apps": [{"name": "VULCAN"}],
	  "failures": {"trace_file": "trace.json"},
	  "policies": ["B"],
	  "runs": 2
	}`
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Failures.Trace == nil || s.Failures.TraceFile != "" {
		t.Fatalf("trace_file not inlined: %+v", s.Failures)
	}
	if s.Failures.Trace.ToReplay().Digest() != tr.ToReplay().Digest() {
		t.Fatal("loaded trace differs from the file")
	}
	// A dangling reference must fail at load time.
	bad := strings.Replace(spec, "trace.json", "missing.json", 1)
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("dangling trace_file accepted")
	}
}

// Cohort features: custom apps, Eq. (3) rescaling, duplicate-label
// disambiguation.
func TestCohortCompilation(t *testing.T) {
	s := mustParse(t, `{
	  "version": 1,
	  "name": "cohort",
	  "apps": [
	    {"name": "GYRO"},
	    {"name": "GYRO", "scale": {"nodes": 252, "new_dram_gb": 1024}},
	    {"name": "TOY", "nodes": 8, "total_ckpt_gb": 4.5, "compute_hours": 12}
	  ],
	  "policies": ["B"],
	  "runs": 1
	}`)
	cfgs, err := s.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 3 {
		t.Fatalf("got %d configs, want 3", len(cfgs))
	}
	if cfgs[0].Label != "GYRO" || cfgs[1].Label != "GYRO#2" || cfgs[2].Label != "TOY" {
		t.Fatalf("labels: %q %q %q", cfgs[0].Label, cfgs[1].Label, cfgs[2].Label)
	}
	gyro, _ := workload.ByName("GYRO")
	scaled := cfgs[1].Platform.App
	want := workload.ScaleEq3(gyro.TotalCkptGB, gyro.Nodes, 252, 512, 1024)
	if scaled.Nodes != 252 || scaled.TotalCkptGB != want {
		t.Fatalf("Eq. (3) scaling wrong: %+v (want ckpt %v)", scaled, want)
	}
	if custom := cfgs[2].Platform.App; custom.TotalCkptGB != 4.5 || custom.ComputeHours != 12 {
		t.Fatalf("custom app wrong: %+v", custom)
	}
}

// Canonical rendering: parse → render → parse is a fixed point, and the
// canonical key text distinguishes simulation-relevant changes while
// ignoring default spelling.
func TestCanonicalFixedPoint(t *testing.T) {
	for name, src := range map[string]string{
		"minimal": minimalSpec,
		"full": `{
		  "version": 1,
		  "name": "full",
		  "description": "everything set",
		  "apps": [{"name": "POP"}, {"name": "T", "nodes": 3, "total_ckpt_gb": 1.5, "compute_hours": 2}],
		  "platform": {"lead_scale": 0.5, "fn_rate": 0.3, "fp_rate": 0.1, "lm_alpha": 2,
		               "faults": {"bb_write_fail_prob": 0.01, "restart_retries": 2}},
		  "failures": {"system": "LANL System 18"},
		  "policies": ["M2", "P1"],
		  "runs": 10,
		  "seed": 9
		}`,
	} {
		s := mustParse(t, src)
		r1, err := s.Render()
		if err != nil {
			t.Fatalf("%s: render: %v", name, err)
		}
		s2, err := Parse(r1)
		if err != nil {
			t.Fatalf("%s: reparse: %v", name, err)
		}
		r2, err := s2.Render()
		if err != nil {
			t.Fatalf("%s: re-render: %v", name, err)
		}
		if !bytes.Equal(r1, r2) {
			t.Errorf("%s: rendering is not a fixed point:\n%s\nvs\n%s", name, r1, r2)
		}
	}
}

// TestEveryPlatformKeyMovesAResult: each key of a spec's platform block
// must reach the simulation. The test walks PlatformSpec by reflection
// and applies each field's listed perturbation (to another valid value)
// to a spec of crossval's small busy P2 cell; compiled through Configs,
// the cell's step-tier runs on eight seeds must then change (most of
// this cell's short runs see no failure and few predictions, so two
// seeds leave the predictor keys unmoved). It catches a key that parses
// but never reaches platform.Config, which the platform-level gate
// (TestEveryConfigFieldMovesAnOutput) cannot see; a new key with no
// perturbation listed fails too.
func TestEveryPlatformKeyMovesAResult(t *testing.T) {
	keys := map[string]func(*PlatformSpec){
		"LeadScale":          func(p *PlatformSpec) { p.LeadScale = 2 },
		"FNRate":             func(p *PlatformSpec) { p.FNRate = 0.2 },
		"FPRate":             func(p *PlatformSpec) { p.FPRate = 0.5 },
		"PerfectPredictor":   func(p *PlatformSpec) { p.PerfectPredictor = true },
		"AccuracyAwareSigma": func(p *PlatformSpec) { p.AccuracyAwareSigma = true },
		"LMAlpha":            func(p *PlatformSpec) { p.LMAlpha = 20 }, // θ past most leads: σ and the OCI drop
		"Faults":             func(p *PlatformSpec) { p.Faults = &faultinject.Config{BBWriteFailProb: 0.2} },
	}
	// The spec names no catalogue system this busy: the compiled cell
	// takes crossval's after Configs, which leaves every platform key as
	// the spec set it.
	busy := failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48}
	results := func(p PlatformSpec) []stats.RunResult {
		t.Helper()
		s := &Spec{
			Name:     "knob",
			Apps:     []AppSpec{{Name: "crossval-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24}},
			Platform: &p,
			Policies: []string{"P2"},
		}
		cfgs, err := s.Configs()
		if err != nil || len(cfgs) != 1 {
			t.Fatalf("Configs = %d cells, %v; want one", len(cfgs), err)
		}
		pc := cfgs[0].Platform
		pc.System = busy
		var out []stats.RunResult
		for seed := uint64(1); seed <= 8; seed++ {
			out = append(out, stepsim.Simulate(stepsim.Config{Model: cfgs[0].Policy, Config: pc}, seed))
		}
		return out
	}
	// Off the default recall, so the accuracy-aware σ differs from the
	// published one.
	base := PlatformSpec{FNRate: 0.3}
	want := results(base)
	for _, f := range reflect.VisibleFields(reflect.TypeOf(PlatformSpec{})) {
		perturb, ok := keys[f.Name]
		if !ok {
			t.Errorf("PlatformSpec.%s: no perturbation listed", f.Name)
			continue
		}
		p := base
		perturb(&p)
		if reflect.DeepEqual(results(p), want) {
			t.Errorf("PlatformSpec.%s (%s): perturbing it moves no step-tier result", f.Name, f.Tag.Get("json"))
		}
	}
}
