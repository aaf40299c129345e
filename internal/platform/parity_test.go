package platform_test

import (
	"testing"

	"pckpt/internal/crmodel"
	"pckpt/internal/failure"
	"pckpt/internal/iomodel"
	"pckpt/internal/nodesim"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stepsim"
	"pckpt/internal/workload"
)

// TestDerivedParity asserts that every simulation tier, handed matched
// configurations, derives byte-identical platform quantities — and that
// all equal the platform package's own derivation. Derived is a
// comparable struct of float64s, so == is bitwise equality; any second
// implementation of a derived quantity sneaking back into a tier shows
// up here as a mismatch.
func TestDerivedParity(t *testing.T) {
	summit := iomodel.New(iomodel.DefaultSummit())
	cases := []struct {
		name string
		cfg  platform.Config
	}{
		{"small-busy", platform.Config{
			App:    workload.App{Name: "small", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24},
			System: failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48},
		}},
		{"xgc-titan", func() platform.Config {
			app, err := workload.ByName("XGC")
			if err != nil {
				t.Fatal(err)
			}
			return platform.Config{App: app, System: failure.Titan}
		}()},
		{"chimera-titan-scaled-leads", func() platform.Config {
			app, err := workload.ByName("CHIMERA")
			if err != nil {
				t.Fatal(err)
			}
			return platform.Config{App: app, System: failure.Titan, LeadScale: 0.25}
		}()},
		{"explicit-io-and-rates", platform.Config{
			App:       workload.App{Name: "mid", Nodes: 512, TotalCkptGB: 512 * 64, ComputeHours: 120},
			System:    failure.System{Name: "flaky", Shape: 0.7, ScaleHours: 12, Nodes: 4096},
			IO:        summit,
			FNRate:    0.35,
			FPRate:    0.10,
			LeadScale: 2,
		}},
		{"accuracy-aware-sigma", platform.Config{
			App:                workload.App{Name: "aa", Nodes: 256, TotalCkptGB: 256 * 32, ComputeHours: 48},
			System:             failure.Titan,
			FNRate:             0.5,
			AccuracyAwareSigma: true,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.cfg.Derive()
			appDerived := crmodel.Config{Model: policy.P2, Config: tc.cfg}.Derive()
			nodeDerived := nodesim.Config{Policy: policy.P2, Config: tc.cfg}.Derive()
			stepDerived := stepsim.Config{Model: policy.M2, Config: tc.cfg}.Derive()
			if appDerived != want {
				t.Errorf("crmodel derivation diverges:\napp  %+v\nwant %+v", appDerived, want)
			}
			if nodeDerived != want {
				t.Errorf("nodesim derivation diverges:\nnode %+v\nwant %+v", nodeDerived, want)
			}
			if stepDerived != want {
				t.Errorf("stepsim derivation diverges:\nstep %+v\nwant %+v", stepDerived, want)
			}
			// One σ gate for every tier: policy.ID.Sigma hands the
			// LM-capable models the platform package's own number and every
			// other model zero.
			for _, id := range policy.All() {
				wantSigma := 0.0
				if id.UsesLM() {
					wantSigma = tc.cfg.SigmaLM()
				}
				if s := id.Sigma(appDerived); s != wantSigma {
					t.Errorf("%s sigma %v, want %v", id, s, wantSigma)
				}
			}
		})
	}
}
