// Package workload describes the six real-world HPC applications the
// paper simulates (its Table I) and the checkpoint-size scaling rule,
// Eq. (3), used to port application footprints between systems with
// different node counts and DRAM sizes (the paper scaled Titan-era
// characteristics up to Summit).
package workload

import (
	"fmt"
	"sort"
)

// App describes one application's simulation-relevant characteristics.
type App struct {
	// Name is the application identifier (e.g. "CHIMERA").
	Name string
	// Nodes is the number of compute nodes the job runs on.
	Nodes int
	// TotalCkptGB is the application-wide checkpoint volume in GB: the
	// sum over all nodes of the state each node must save.
	TotalCkptGB float64
	// ComputeHours is the failure-free computation time of the job.
	ComputeHours float64
}

// PerNodeGB returns the checkpoint footprint of a single node.
func (a App) PerNodeGB() float64 { return a.TotalCkptGB / float64(a.Nodes) }

// ComputeSeconds returns the failure-free runtime in seconds.
func (a App) ComputeSeconds() float64 { return a.ComputeHours * 3600 }

// String implements fmt.Stringer.
func (a App) String() string {
	return fmt.Sprintf("%s(nodes=%d, ckpt=%.4gGB, compute=%gh)", a.Name, a.Nodes, a.TotalCkptGB, a.ComputeHours)
}

// Validate reports an error for non-physical characteristics.
func (a App) Validate() error {
	switch {
	case a.Name == "":
		return fmt.Errorf("workload: empty application name")
	case a.Nodes <= 0:
		return fmt.Errorf("workload %s: non-positive node count", a.Name)
	case a.TotalCkptGB <= 0:
		return fmt.Errorf("workload %s: non-positive checkpoint size", a.Name)
	case a.ComputeHours <= 0:
		return fmt.Errorf("workload %s: non-positive compute time", a.Name)
	}
	return nil
}

// Summit returns the paper's Table I: the six applications with checkpoint
// sizes already scaled to Summit via Eq. (3). Ordered largest first, the
// order the paper's figures use.
func Summit() []App {
	return []App{
		{Name: "CHIMERA", Nodes: 2272, TotalCkptGB: 646382, ComputeHours: 360},
		{Name: "XGC", Nodes: 1515, TotalCkptGB: 149625, ComputeHours: 240},
		{Name: "S3D", Nodes: 505, TotalCkptGB: 20199, ComputeHours: 240},
		{Name: "GYRO", Nodes: 126, TotalCkptGB: 197.2, ComputeHours: 120},
		{Name: "POP", Nodes: 126, TotalCkptGB: 102.5, ComputeHours: 480},
		{Name: "VULCAN", Nodes: 64, TotalCkptGB: 3.27, ComputeHours: 720},
	}
}

// ByName returns the Summit application with the given name.
func ByName(name string) (App, error) {
	for _, a := range Summit() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("workload: unknown application %q", name)
}

// Names returns the catalogue's application names, largest job first.
func Names() []string {
	apps := Summit()
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name
	}
	return names
}

// SortBySize orders apps by total checkpoint volume, descending, in place.
// The paper's observations are phrased in terms of application size; the
// figures keep this order by iterating Summit(), which lists Table I
// already sorted: TestSortBySize holds Summit() to SortBySize's order.
func SortBySize(apps []App) {
	sort.SliceStable(apps, func(i, j int) bool {
		return apps[i].TotalCkptGB > apps[j].TotalCkptGB
	})
}

// ScaleEq3 applies the paper's Eq. (3): given an application measured on a
// system with oldNodes nodes of oldDRAMGB memory each, return the
// checkpoint size when the application runs on newNodes nodes of
// newDRAMGB each. Footprint scales with both node count and memory size.
func ScaleEq3(oldSizeGB float64, oldNodes, newNodes int, oldDRAMGB, newDRAMGB float64) float64 {
	if oldNodes <= 0 || newNodes <= 0 || oldDRAMGB <= 0 || newDRAMGB <= 0 {
		panic("workload: ScaleEq3 with non-positive parameter")
	}
	return oldSizeGB * float64(newNodes) * newDRAMGB / (float64(oldNodes) * oldDRAMGB)
}

// ScaleApp returns a copy of a rescaled to a target system via Eq. (3).
func ScaleApp(a App, newNodes int, oldDRAMGB, newDRAMGB float64) App {
	out := a
	out.Nodes = newNodes
	out.TotalCkptGB = ScaleEq3(a.TotalCkptGB, a.Nodes, newNodes, oldDRAMGB, newDRAMGB)
	return out
}
