package experiments

import (
	"reflect"
	"testing"
)

// The result cache keys configurations WITHOUT the worker count: the
// whole design rests on Workers=1 and Workers=N producing identical
// results for the same seed. This test pins that invariant on a
// representative experiment subset — an app-granularity sweep over
// every model (fig6a), a lead-scale sweep (fig4), and the dual-tier
// runner (crossval, which exercises SimulateSweepN on every tier), and
// the degraded-platform sweep (fault-plan draws must replay identically
// regardless of scheduling). Each runs through Run, so the worker count
// also sizes the pool every cell of the plan shares.
func TestWorkersDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism replay is not -short")
	}
	cases := []struct {
		id string
		p  Params
	}{
		{"fig6a", Params{Runs: 30, Seed: 42, Apps: []string{"CHIMERA"}}},
		{"fig4", Params{Runs: 30, Seed: 42, Apps: []string{"XGC"}}},
		{"crossval", Params{Runs: 48, Seed: 42}},
		{"degraded", Params{Runs: 30, Seed: 42, Apps: []string{"XGC"}}},
		// scenario includes the trace-replay spec: a replayed failure
		// stream must be bit-identical across worker counts too.
		{"scenario", Params{Runs: 20, Seed: 42}},
		// contention runs whole machines (several apps on one shared
		// clock) per run; the machine driver must parallelize across
		// runs without perturbing any of them.
		{"contention", Params{Runs: 20, Seed: 42}},
		// machine-degraded arms the machine-scope fault plan on top:
		// brownout repricings, drain-slot outages, and crash/requeue
		// lifecycles must all replay bit-identically per run seed no
		// matter which worker runs them.
		{"machine-degraded", Params{Runs: 20, Seed: 42}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			d, err := ByID(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			serial := tc.p
			serial.Workers = 1
			parallel := tc.p
			parallel.Workers = 8
			r1, err := Run(d, serial)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Run(d, parallel)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Text != r2.Text {
				t.Errorf("rendered text differs between Workers=1 and Workers=8:\n--- serial\n%s\n--- parallel\n%s", r1.Text, r2.Text)
			}
			if !reflect.DeepEqual(r1.Values, r2.Values) {
				t.Error("machine-readable values differ between Workers=1 and Workers=8")
			}
		})
	}
}
