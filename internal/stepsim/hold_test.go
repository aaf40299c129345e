package stepsim

import (
	"math"
	"testing"

	"pckpt/internal/policy"
	"pckpt/internal/sim"
	"pckpt/internal/trace"
)

// TestRunAheadSelection: only an app with neither an arbiter nor a
// trace recorder runs ahead; the other two keep the heap path.
func TestRunAheadSelection(t *testing.T) {
	cfg := Config{Model: policy.B, Config: NestedPlatform()}
	traced := cfg
	traced.Trace = &trace.Buffer{}
	for _, c := range []struct {
		name string
		cfg  Config
		opts AppOptions
		want bool
	}{
		{"solo", cfg, AppOptions{}, true},
		{"traced", traced, AppOptions{}, false},
		{"arbitered", cfg, AppOptions{Arbiter: nopArbiter{}}, false},
	} {
		eng := sim.NewEngine()
		if got := startApp(eng, c.cfg, 1, c.opts).runsAhead; got != c.want {
			t.Errorf("%s: run-ahead %v, want %v", c.name, got, c.want)
		}
	}
}

// nopArbiter satisfies Arbiter; TestRunAheadSelection never runs the
// engine it is attached to.
type nopArbiter struct{}

func (nopArbiter) StartFlow(int, WriteClass, float64, float64, func()) FlowID { return 0 }
func (nopArbiter) SuspendFlow(FlowID)                                         {}
func (nopArbiter) ResumeFlow(FlowID)                                          {}
func (nopArbiter) CancelFlow(FlowID)                                          {}

// TestWaitRejectsNaN: a NaN wait panics like a negative one instead of
// holding (or queueing) a wake at a NaN time.
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
