package scenario

import (
	"fmt"

	"pckpt/internal/faultinject"
	"pckpt/internal/machine"
)

// MachineSpec is the optional shared-machine block: with it present, the
// spec's cohort × policy cells become tenants of ONE machine — contending
// for a node pool, an aggregate PFS bandwidth ceiling, and BB drain slots
// — instead of independent solo runs. Zero fields take the machine
// package's defaults (node pool sized to the cohort, I/O-model ceiling
// and drain concurrency, FIFO admission).
type MachineSpec struct {
	// Nodes is the machine's node pool (0 = every tenant fits at once).
	Nodes int `json:"nodes,omitempty"`
	// PFSCeilingGBs is the shared file-system bandwidth ceiling
	// (0 = the I/O model's aggregate ceiling).
	PFSCeilingGBs float64 `json:"pfs_ceiling_gbs,omitempty"`
	// MaxConcurrentDrains bounds machine-wide concurrent BB→PFS drains
	// (0 = the I/O model's drain concurrency).
	MaxConcurrentDrains int `json:"max_concurrent_drains,omitempty"`
	// Admission names the admission policy: "fifo" or "smallest-fit"
	// ("" = fifo).
	Admission string `json:"admission,omitempty"`
	// ArrivalSeconds gives each tenant's submission time, parallel to the
	// compiled cohort × policy grid; absent means everyone arrives at 0.
	ArrivalSeconds []float64 `json:"arrival_seconds,omitempty"`
	// Racks groups tenants into fault domains, parallel to the grid: one
	// crash draw strikes every running tenant of the struck rack. Absent
	// means each tenant is its own rack (uncorrelated crashes).
	Racks []int `json:"racks,omitempty"`
	// Faults is the machine-scope fault plan (PFS brownouts, drain-slot
	// outages, tenant crashes, starvation watchdog); its keys are
	// faultinject.MachineConfig's JSON tags, and zero fields take the
	// faultinject defaults for whichever processes are enabled. Absent
	// means a healthy machine — and, like the block itself, contributes
	// nothing to the canonical rendering, so pre-fault specs keep theirs.
	Faults *faultinject.MachineConfig `json:"faults,omitempty"`
}

// MachineConfig compiles the spec's machine block plus cohort into one
// machine.Config: tenant i is the i-th cell of the cohort × policy grid
// (cohort order, then policy order) with its arrival from
// ArrivalSeconds. A nil error means the config passes machine validation
// and is safe to simulate.
func (s *Spec) MachineConfig() (machine.Config, error) {
	if s == nil || s.Machine == nil {
		return machine.Config{}, fmt.Errorf("scenario: spec has no machine block")
	}
	cfgs, err := s.Configs()
	if err != nil {
		return machine.Config{}, err
	}
	n := s.Normalize()
	m := n.Machine
	adm, err := machine.AdmissionFor(m.Admission)
	if err != nil {
		return machine.Config{}, fmt.Errorf("scenario: machine: %w", err)
	}
	if len(m.ArrivalSeconds) != 0 && len(m.ArrivalSeconds) != len(cfgs) {
		return machine.Config{}, fmt.Errorf(
			"scenario: machine: %d arrival_seconds for %d tenants (cohort × policies)",
			len(m.ArrivalSeconds), len(cfgs))
	}
	if err := finite(arrivalFields(m.ArrivalSeconds)); err != nil {
		return machine.Config{}, fmt.Errorf("scenario: machine: %w", err)
	}
	jobs := make([]machine.JobSpec, len(cfgs))
	for i, rc := range cfgs {
		var at float64
		if len(m.ArrivalSeconds) > 0 {
			at = m.ArrivalSeconds[i]
		}
		jobs[i] = machine.JobSpec{Model: rc.Policy, Platform: rc.Platform, ArrivalSeconds: at}
	}
	var faults faultinject.MachineConfig
	if m.Faults != nil {
		faults = *m.Faults
	}
	cfg := machine.Config{
		Jobs:                jobs,
		Nodes:               m.Nodes,
		PFSCeilingGBs:       m.PFSCeilingGBs,
		MaxConcurrentDrains: m.MaxConcurrentDrains,
		Admission:           adm,
		Racks:               append([]int(nil), m.Racks...),
		Faults:              faults,
	}
	if err := cfg.WithDefaults().Validate(); err != nil {
		return machine.Config{}, fmt.Errorf("scenario: %w", err)
	}
	return cfg, nil
}

// arrivalFields adapts an arrival slice to the finite() checker.
func arrivalFields(arrivals []float64) map[string]float64 {
	fields := make(map[string]float64, len(arrivals))
	for i, v := range arrivals {
		fields[fmt.Sprintf("arrival_seconds[%d]", i)] = v
	}
	return fields
}

// normalizeMachine returns the machine block's normal form: a deep copy
// with the admission default made explicit. Nil stays nil — the block is
// optional, and an absent block must render absent (omitempty) so specs
// written before the machine block existed keep their canonical form.
func normalizeMachine(m *MachineSpec) *MachineSpec {
	if m == nil {
		return nil
	}
	n := *m
	n.ArrivalSeconds = append([]float64(nil), m.ArrivalSeconds...)
	if n.Admission == "" {
		n.Admission = "fifo"
	}
	n.Racks = append([]int(nil), m.Racks...)
	if m.Faults != nil {
		// Defaults made explicit, exactly as the simulator will apply
		// them, so equal effective plans render equal canonical forms.
		// WithDefaults is idempotent, keeping Normalize idempotent.
		f := m.Faults.WithDefaults()
		n.Faults = &f
	}
	return &n
}

// checkMachine verifies the machine block's skeleton (the full
// compilation check lives in MachineConfig).
func checkMachine(m *MachineSpec) error {
	if m == nil {
		return nil
	}
	if m.Nodes < 0 {
		return fmt.Errorf("scenario: machine: negative node pool %d", m.Nodes)
	}
	if m.MaxConcurrentDrains < 0 {
		return fmt.Errorf("scenario: machine: negative drain concurrency %d", m.MaxConcurrentDrains)
	}
	fields := arrivalFields(m.ArrivalSeconds)
	fields["pfs_ceiling_gbs"] = m.PFSCeilingGBs
	if err := finite(fields); err != nil {
		return fmt.Errorf("scenario: machine: %w", err)
	}
	for i, at := range m.ArrivalSeconds {
		if at < 0 {
			return fmt.Errorf("scenario: machine: arrival_seconds[%d] is negative (%g)", i, at)
		}
	}
	for i, r := range m.Racks {
		if r < 0 {
			return fmt.Errorf("scenario: machine: racks[%d] is negative (%d)", i, r)
		}
	}
	if m.Faults != nil {
		if err := m.Faults.Validate(); err != nil {
			return fmt.Errorf("scenario: machine: %w", err)
		}
	}
	return nil
}
