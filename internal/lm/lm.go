// Package lm models proactive process-level live migration (LM), the
// preferred proactive action of the paper's hybrid p-ckpt model: when a
// failure is predicted with enough lead time, the vulnerable node's
// process migrates to a healthy spare while the application keeps
// running, avoiding the failure entirely.
//
// The paper sizes an LM at three times the node's checkpoint footprint
// (a stencil's t−1, t, t+1 temporal planes must all move, where a
// checkpoint needs only one), bounded by the node's DRAM, and prices it
// against the inter-node network bandwidth. θ is the minimum lead time
// for a migration to finish before the failure.
package lm

import (
	"fmt"
	"math"
)

// DefaultAlpha is the paper's LM-transfer to checkpoint-size ratio.
const DefaultAlpha = 3.0

// DefaultDilation is the runtime dilation an in-progress migration
// imposes on the application. The paper cites 0.08–2.98 % from Wang et
// al.; the default sits mid-range.
const DefaultDilation = 0.015

// Config parameterises the migration model.
type Config struct {
	// Alpha is the ratio of migrated bytes to checkpoint bytes (the
	// M2-* sweep of the paper's Fig. 6c varies exactly this).
	Alpha float64
	// RAMCapGB bounds the transfer: a process cannot exceed node DRAM
	// (512 GB on Summit).
	RAMCapGB float64
	// NetworkGBs is the inter-node link bandwidth (12.5 GB/s on Summit).
	NetworkGBs float64
	// Dilation is the fractional runtime slowdown while a migration is
	// in flight.
	Dilation float64
}

// Default returns the Summit configuration used across the paper.
func Default() Config {
	return Config{Alpha: DefaultAlpha, RAMCapGB: 512, NetworkGBs: 12.5, Dilation: DefaultDilation}
}

// WithAlpha returns a copy of c with Alpha replaced (the Fig. 6c sweep).
func (c Config) WithAlpha(alpha float64) Config {
	c.Alpha = alpha
	return c
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	// Each test is written to fail for NaN, which compares false with
	// everything and would pass a plain range check.
	switch {
	case !(c.Alpha > 0) || math.IsInf(c.Alpha, 1):
		return fmt.Errorf("lm: non-positive or non-finite alpha %g", c.Alpha)
	case !(c.RAMCapGB > 0) || math.IsInf(c.RAMCapGB, 1):
		return fmt.Errorf("lm: non-positive or non-finite RAM cap %g", c.RAMCapGB)
	case !(c.NetworkGBs > 0) || math.IsInf(c.NetworkGBs, 1):
		return fmt.Errorf("lm: non-positive or non-finite network bandwidth %g", c.NetworkGBs)
	case !(c.Dilation >= 0 && c.Dilation < 1):
		return fmt.Errorf("lm: dilation %g outside [0, 1)", c.Dilation)
	}
	return nil
}

// TransferGB returns the bytes (in GB) a migration moves for a node whose
// checkpoint footprint is perNodeCkptGB: α times the footprint, capped at
// the node's DRAM.
func (c Config) TransferGB(perNodeCkptGB float64) float64 {
	if perNodeCkptGB <= 0 {
		return 0
	}
	gb := c.Alpha * perNodeCkptGB
	if gb > c.RAMCapGB {
		gb = c.RAMCapGB
	}
	return gb
}

// Theta returns the minimum lead time in seconds for a migration of a
// node with the given checkpoint footprint to complete before the
// predicted failure: transfer size over network bandwidth. This is the θ
// of the paper's Eq. (2) discussion. A prediction with lead ≥ θ can
// migrate (a tie migrates): policy's migrate and hybrid p-ckpt
// strategies and pckpt.Run each compare the lead with this θ.
func (c Config) Theta(perNodeCkptGB float64) float64 {
	return c.TransferGB(perNodeCkptGB) / c.NetworkGBs
}

// DilationSeconds returns the extra application runtime incurred by one
// migration: the migration lasts Theta seconds during which the
// application runs Dilation slower.
func (c Config) DilationSeconds(perNodeCkptGB float64) float64 {
	return c.Theta(perNodeCkptGB) * c.Dilation
}
