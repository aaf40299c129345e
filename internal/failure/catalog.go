// Package failure implements the failure generation and prediction stack
// of the paper: Weibull inter-arrival sampling with the published Table
// III parameters, the ten-sequence lead-time distribution mined from real
// HPC logs (Fig. 2a), a predictor with configurable false-positive and
// false-negative rates (Desh/Aarohi stand-in), lead-time variability
// scaling, and the σ estimator used by the hybrid model's extended OCI
// formula, Eq. (2).
package failure

import (
	"fmt"
	"math"
)

// System describes one HPC system's failure record: a Weibull fit of
// system-wide failure inter-arrival times. These are the three rows of
// the paper's Table III.
type System struct {
	// Name identifies the system ("OLCF Titan", ...).
	Name string
	// Shape and ScaleHours are the fitted Weibull parameters; ScaleHours
	// is in hours of system-wide inter-arrival time.
	Shape      float64
	ScaleHours float64
	// Nodes is the system's node count, used to scale the distribution to
	// a job occupying a subset of nodes.
	Nodes int
}

// Table III of the paper.
var (
	// LANLSystem8 is LANL System 8 (164 nodes).
	LANLSystem8 = System{Name: "LANL System 8", Shape: 0.7111, ScaleHours: 67.375, Nodes: 164}
	// LANLSystem18 is LANL System 18 (1024 nodes).
	LANLSystem18 = System{Name: "LANL System 18", Shape: 0.8170, ScaleHours: 6.6293, Nodes: 1024}
	// Titan is OLCF Titan (18688 nodes); the paper applies its
	// distribution to Summit for the headline results.
	Titan = System{Name: "OLCF Titan", Shape: 0.6885, ScaleHours: 5.4527, Nodes: 18868}
)

// Systems returns the Table III catalogue in presentation order.
func Systems() []System {
	return []System{Titan, LANLSystem18, LANLSystem8}
}

// SystemByName looks a system up by its Table III name.
func SystemByName(name string) (System, error) {
	for _, s := range Systems() {
		if s.Name == name {
			return s, nil
		}
	}
	return System{}, fmt.Errorf("failure: unknown system %q", name)
}

// MeanInterarrivalHours returns the analytical mean of the system-wide
// Weibull inter-arrival time: scale × Γ(1 + 1/shape).
func (s System) MeanInterarrivalHours() float64 {
	return s.ScaleHours * math.Gamma(1+1/s.Shape)
}

// JobScaleSeconds converts the system-wide Weibull scale to a job that
// occupies jobNodes of the system's nodes: failures land on a uniformly
// random node, so a job holding a fraction c/N of nodes sees failures at
// c/N the rate, which stretches the inter-arrival time axis by N/c and
// multiplies the Weibull scale by the same factor (shape unchanged).
// Jobs larger than the original system extrapolate the same rule.
func (s System) JobScaleSeconds(jobNodes int) float64 {
	if jobNodes <= 0 {
		panic("failure: JobScaleSeconds with non-positive job size")
	}
	return s.ScaleHours * 3600 * float64(s.Nodes) / float64(jobNodes)
}

// JobFailureRate returns the job-wide failure rate in failures/second for
// a job on jobNodes nodes: the λ·c product of Young's formula, Eq. (1).
func (s System) JobFailureRate(jobNodes int) float64 {
	scale := s.JobScaleSeconds(jobNodes)
	return 1 / (scale * math.Gamma(1+1/s.Shape))
}

// Validate reports a parameter error, or nil.
func (s System) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("failure: system with empty name")
	case s.Shape <= 0 || s.ScaleHours <= 0:
		return fmt.Errorf("failure: system %s has non-positive Weibull parameters", s.Name)
	case s.Nodes <= 0:
		return fmt.Errorf("failure: system %s has non-positive node count", s.Name)
	}
	return nil
}
