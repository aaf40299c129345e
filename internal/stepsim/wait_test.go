package stepsim

import (
	"math"
	"testing"

	"pckpt/internal/policy"
	"pckpt/internal/sim"
)

// TestWaitRejectsNaN: a NaN wait panics like a negative one instead of
// arming the wake alarm at a NaN time.
func TestWaitRejectsNaN(t *testing.T) {
	eng := sim.NewEngine()
	a := startApp(eng, Config{Model: policy.B, Config: NestedPlatform()}, 1, AppOptions{})
	defer func() {
		if recover() == nil {
			t.Fatal("wait(NaN) did not panic")
		}
	}()
	a.wait(math.NaN(), func(bool) {})
}
