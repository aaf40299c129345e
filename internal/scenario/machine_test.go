package scenario

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"pckpt/internal/faultinject"
	"pckpt/internal/policy"
)

const machineSpec = `{
  "version": 1,
  "name": "machine-min",
  "apps": [{"name": "VULCAN"}],
  "policies": ["M1", "P2"],
  "machine": {
    "pfs_ceiling_gbs": 5,
    "arrival_seconds": [0, 600]
  },
  "runs": 2
}`

func TestMachineSpecCompiles(t *testing.T) {
	s := mustParse(t, machineSpec)
	if err := s.Validate(); err != nil {
		t.Fatalf("machine spec rejected: %v", err)
	}
	cfg, err := s.MachineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Jobs) != 2 {
		t.Fatalf("%d tenants, want 2 (1 app × 2 policies)", len(cfg.Jobs))
	}
	if cfg.Jobs[0].Model != policy.M1 || cfg.Jobs[1].Model != policy.P2 {
		t.Fatalf("tenant models %v/%v, want M1/P2", cfg.Jobs[0].Model, cfg.Jobs[1].Model)
	}
	if cfg.Jobs[1].ArrivalSeconds != 600 {
		t.Fatalf("tenant 1 arrives at %g, want 600", cfg.Jobs[1].ArrivalSeconds)
	}
	if cfg.PFSCeilingGBs != 5 {
		t.Fatalf("ceiling %g, want 5", cfg.PFSCeilingGBs)
	}
	// The normalized block names FIFO explicitly.
	if adm := s.Normalize().Machine.Admission; adm != "fifo" {
		t.Fatalf("normalized admission %q, want fifo", adm)
	}
}

func TestMachineSpecRejects(t *testing.T) {
	cases := map[string]func(*Spec){
		"arrivals-mismatch": func(s *Spec) { s.Machine.ArrivalSeconds = []float64{0} },
		"negative-arrival":  func(s *Spec) { s.Machine.ArrivalSeconds = []float64{0, -5} },
		"nan-arrival":       func(s *Spec) { s.Machine.ArrivalSeconds = []float64{0, math.NaN()} },
		"bad-admission":     func(s *Spec) { s.Machine.Admission = "lottery" },
		"negative-nodes":    func(s *Spec) { s.Machine.Nodes = -1 },
		"tiny-machine":      func(s *Spec) { s.Machine.Nodes = 2 }, // smaller than any tenant
		"nan-ceiling":       func(s *Spec) { s.Machine.PFSCeilingGBs = math.NaN() },
		"negative-drains":   func(s *Spec) { s.Machine.MaxConcurrentDrains = -2 },
	}
	for name, mutate := range cases {
		s := mustParse(t, machineSpec)
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid machine spec accepted", name)
		}
	}
	// A spec without the block cannot compile a machine.
	if _, err := mustParse(t, minimalSpec).MachineConfig(); err == nil {
		t.Error("MachineConfig succeeded without a machine block")
	}
}

// The machine block round-trips through the canonical rendering and
// shows up in the canonical string; its absence leaves pre-machine specs
// byte-identical.
func TestMachineSpecCanonical(t *testing.T) {
	s := mustParse(t, machineSpec)
	r1, err := s.Render()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(r1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r2) {
		t.Errorf("machine rendering is not a fixed point:\n%s\nvs\n%s", r1, r2)
	}
	cs, err := s.CanonicalString()
	if err != nil {
		t.Fatal(err)
	}
	want := "machine=nodes:0|ceiling:5|drains:0|admission:fifo|arrive:0|arrive:600\n"
	if !strings.Contains(cs, want) {
		t.Errorf("canonical string lacks machine line %q:\n%s", want, cs)
	}
	plain, err := mustParse(t, minimalSpec).CanonicalString()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain, "machine=") {
		t.Errorf("machine-less spec renders a machine line:\n%s", plain)
	}
}

const machineFaultSpec = `{
  "version": 1,
  "name": "machine-faulted",
  "apps": [{"name": "VULCAN"}],
  "policies": ["M1", "P2"],
  "machine": {
    "pfs_ceiling_gbs": 5,
    "arrival_seconds": [0, 600],
    "racks": [0, 0],
    "faults": {
      "brownout_rate_per_hour": 0.5,
      "blackout_prob": 0.25,
      "crash_rate_per_hour": 0.1
    }
  },
  "runs": 2
}`

// The faults block lowers to the faultinject plan with defaults applied
// exactly as the simulator will, and racks ride into the machine config.
func TestMachineFaultSpecCompiles(t *testing.T) {
	s := mustParse(t, machineFaultSpec)
	if err := s.Validate(); err != nil {
		t.Fatalf("faulted machine spec rejected: %v", err)
	}
	cfg, err := s.MachineConfig()
	if err != nil {
		t.Fatal(err)
	}
	f := cfg.Faults
	if f.BrownoutRatePerHour != 0.5 || f.BlackoutProb != 0.25 || f.CrashRatePerHour != 0.1 {
		t.Fatalf("explicit fault fields lost: %+v", f)
	}
	if len(cfg.Racks) != 2 || cfg.Racks[0] != 0 || cfg.Racks[1] != 0 {
		t.Fatalf("racks %v, want [0 0]", cfg.Racks)
	}
	// Normalize makes the per-process defaults explicit, idempotently.
	n := s.Normalize()
	nf := n.Machine.Faults
	if nf == nil {
		t.Fatal("normalized spec dropped the faults block")
	}
	if nf.BrownoutMeanSeconds != faultinject.DefaultBrownoutMeanSeconds ||
		nf.CrashMaxRetries != faultinject.DefaultCrashMaxRetries ||
		nf.CrashBackoffSeconds != faultinject.DefaultCrashBackoffSeconds {
		t.Fatalf("normalized faults lack explicit defaults: %+v", nf)
	}
	if nn := n.Normalize(); *nn.Machine.Faults != *nf {
		t.Fatalf("Normalize not idempotent on the faults block:\n%+v\nvs\n%+v", nf, nn.Machine.Faults)
	}
}

func TestMachineFaultSpecRejects(t *testing.T) {
	cases := map[string]func(*Spec){
		"negative-rate":   func(s *Spec) { s.Machine.Faults.BrownoutRatePerHour = -1 },
		"blackout-prob":   func(s *Spec) { s.Machine.Faults.BlackoutProb = 1.5 },
		"factors-flipped": func(s *Spec) { s.Machine.Faults.BrownoutMinFactor = 0.9; s.Machine.Faults.BrownoutMaxFactor = 0.1 },
		"nan-escalation":  func(s *Spec) { s.Machine.Faults.StarvationEscalationSeconds = math.NaN() },
		"negative-rack":   func(s *Spec) { s.Machine.Racks = []int{0, -1} },
	}
	for name, mutate := range cases {
		s := mustParse(t, machineFaultSpec)
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid faulted machine spec accepted", name)
		}
	}
	// Rack count must match the compiled tenant grid (checked at
	// compilation, where the grid size is known).
	s := mustParse(t, machineFaultSpec)
	s.Machine.Racks = []int{0}
	if _, err := s.MachineConfig(); err == nil {
		t.Error("MachineConfig accepted 1 rack assignment for 2 tenants")
	}
}

// The faults line appears in the canonical string only when the block is
// present — pre-fault machine specs keep their exact cache identity —
// and equal effective plans render equal canonical forms.
func TestMachineFaultSpecCanonical(t *testing.T) {
	s := mustParse(t, machineFaultSpec)
	cs, err := s.CanonicalString()
	if err != nil {
		t.Fatal(err)
	}
	wantMachine := "machine=nodes:0|ceiling:5|drains:0|admission:fifo|arrive:0|arrive:600|rack:0|rack:0\n"
	if !strings.Contains(cs, wantMachine) {
		t.Errorf("canonical string lacks the racked machine line %q:\n%s", wantMachine, cs)
	}
	wantFaults := "machine.faults=brownout:0.5|brownout-mean:600|factors:0.25-0.75|blackout:0.25|drain-outage:0|drain-mean:0|slots:0|crash:0.1|retries:2|backoff:300|escalate:0\n"
	if !strings.Contains(cs, wantFaults) {
		t.Errorf("canonical string lacks the faults line %q:\n%s", wantFaults, cs)
	}

	// A fault-less machine spec renders no faults line, byte-identical to
	// its pre-fault canonical form.
	plain, err := mustParse(t, machineSpec).CanonicalString()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain, "machine.faults=") || strings.Contains(plain, "rack:") {
		t.Errorf("fault-less machine spec renders fault/rack segments:\n%s", plain)
	}

	// Spelling out the defaults changes nothing: same effective plan,
	// same canonical identity.
	explicit := mustParse(t, machineFaultSpec)
	explicit.Machine.Faults.BrownoutMeanSeconds = faultinject.DefaultBrownoutMeanSeconds
	explicit.Machine.Faults.BrownoutMinFactor = faultinject.DefaultBrownoutMinFactor
	explicit.Machine.Faults.BrownoutMaxFactor = faultinject.DefaultBrownoutMaxFactor
	explicit.Machine.Faults.CrashMaxRetries = faultinject.DefaultCrashMaxRetries
	explicit.Machine.Faults.CrashBackoffSeconds = faultinject.DefaultCrashBackoffSeconds
	cs2, err := explicit.CanonicalString()
	if err != nil {
		t.Fatal(err)
	}
	if cs != cs2 {
		t.Errorf("equal effective plans render different canonical forms:\n%s\nvs\n%s", cs, cs2)
	}

	// Round-trip fixed point with the faults block present.
	r1, err := s.Render()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(r1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r2) {
		t.Errorf("faulted machine rendering is not a fixed point:\n%s\nvs\n%s", r1, r2)
	}
}

// Both fault blocks are the faultinject plans themselves, so their field
// order is the rendering's key order: a spec setting every key, written
// in reverse, renders each block in the documented order, and the
// rendering is a fixed point.
func TestFaultBlocksRenderInSchemaOrder(t *testing.T) {
	s := mustParse(t, `{
	  "version": 1,
	  "name": "every-fault-key",
	  "apps": [{"name": "VULCAN"}],
	  "platform": {"faults": {
	    "restart_backoff_seconds": 7, "restart_retries": 3, "cascade_prob": 0.1, "restart_fail_prob": 0.2,
	    "corrupt_prob": 0.01, "pfs_write_fail_prob": 0.02, "bb_write_fail_prob": 0.03}},
	  "policies": ["B"],
	  "machine": {"faults": {
	    "starvation_escalation_seconds": 9, "crash_backoff_seconds": 8, "crash_max_retries": 7,
	    "crash_rate_per_hour": 0.6, "drain_outage_slots": 5, "drain_outage_mean_seconds": 4,
	    "drain_outage_rate_per_hour": 0.3, "blackout_prob": 0.2, "brownout_max_factor": 0.9,
	    "brownout_min_factor": 0.1, "brownout_mean_seconds": 2, "brownout_rate_per_hour": 0.1}}
	}`)
	r, err := s.Render()
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	for _, key := range []string{
		"bb_write_fail_prob", "pfs_write_fail_prob", "corrupt_prob", "restart_fail_prob",
		"cascade_prob", "restart_retries", "restart_backoff_seconds",
		"brownout_rate_per_hour", "brownout_mean_seconds", "brownout_min_factor", "brownout_max_factor",
		"blackout_prob", "drain_outage_rate_per_hour", "drain_outage_mean_seconds", "drain_outage_slots",
		"crash_rate_per_hour", "crash_max_retries", "crash_backoff_seconds", "starvation_escalation_seconds",
	} {
		i := bytes.Index(r, []byte(`"`+key+`":`))
		if i <= last {
			t.Fatalf("key %q missing or out of order in the rendering:\n%s", key, r)
		}
		last = i
	}
	s2, err := Parse(r)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, r2) {
		t.Errorf("rendering is not a fixed point:\n%s\nvs\n%s", r, r2)
	}
}
