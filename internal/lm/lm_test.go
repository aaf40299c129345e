package lm

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.RAMCapGB = 0 },
		func(c *Config) { c.NetworkGBs = -1 },
		func(c *Config) { c.Dilation = 1 },
		func(c *Config) { c.Dilation = -0.1 },
		// Non-finite values pass a plain range check; each must fail.
		func(c *Config) { c.Alpha = math.NaN() },
		func(c *Config) { c.Alpha = math.Inf(1) },
		func(c *Config) { c.RAMCapGB = math.NaN() },
		func(c *Config) { c.RAMCapGB = math.Inf(1) },
		func(c *Config) { c.NetworkGBs = math.NaN() },
		func(c *Config) { c.NetworkGBs = math.Inf(1) },
		func(c *Config) { c.Dilation = math.NaN() },
		func(c *Config) { c.Dilation = math.Inf(1) },
	}
	for i, mutate := range cases {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestTransferTriplesFootprint(t *testing.T) {
	c := Default()
	if got := c.TransferGB(40); got != 120 {
		t.Fatalf("TransferGB(40) = %g, want 120", got)
	}
}

func TestTransferCappedAtRAM(t *testing.T) {
	c := Default()
	// CHIMERA's ~284.5 GB per node would triple to 853 GB; DRAM caps it.
	if got := c.TransferGB(284.5); got != 512 {
		t.Fatalf("TransferGB(284.5) = %g, want 512 (RAM cap)", got)
	}
}

func TestTransferZero(t *testing.T) {
	if Default().TransferGB(0) != 0 || Default().TransferGB(-5) != 0 {
		t.Fatal("non-positive footprint must transfer nothing")
	}
}

func TestThetaKnownValues(t *testing.T) {
	c := Default()
	// CHIMERA: capped 512 GB over 12.5 GB/s ≈ 41 s — the θ the lead-time
	// calibration targets.
	if got := c.Theta(284.5); math.Abs(got-40.96) > 0.01 {
		t.Fatalf("CHIMERA θ = %.2f s, want ≈40.96", got)
	}
	// XGC: 3×98.8 = 296.3 GB → 23.7 s.
	if got := c.Theta(98.76); math.Abs(got-23.7) > 0.1 {
		t.Fatalf("XGC θ = %.2f s, want ≈23.7", got)
	}
}

func TestWithAlpha(t *testing.T) {
	c := Default().WithAlpha(1)
	if c.TransferGB(100) != 100 {
		t.Fatalf("alpha=1 TransferGB(100) = %g", c.TransferGB(100))
	}
	if Default().Alpha != DefaultAlpha {
		t.Fatal("WithAlpha mutated the default")
	}
}

func TestThetaMonotoneInAlphaQuick(t *testing.T) {
	f := func(sizeRaw, aRaw uint8) bool {
		size := float64(sizeRaw%100) + 1
		a1 := float64(aRaw%40)/10 + 0.5
		a2 := a1 + 0.5
		c1 := Default().WithAlpha(a1)
		c2 := Default().WithAlpha(a2)
		return c2.Theta(size) >= c1.Theta(size)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDilationSeconds(t *testing.T) {
	c := Default()
	want := c.Theta(40) * c.Dilation
	if got := c.DilationSeconds(40); math.Abs(got-want) > 1e-12 {
		t.Fatalf("DilationSeconds = %g, want %g", got, want)
	}
}
