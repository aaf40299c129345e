package machine_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"pckpt/internal/machine"
	"pckpt/internal/policy"
	"pckpt/internal/rng"
)

// drawCohort draws a random machine cohort from src: one to four small
// failure-busy jobs over all five models, arrival offsets, bounded or
// unbounded spares, racks, a node pool that may serialize them, a PFS
// ceiling and drain budget that may starve them, either admission
// policy, and a fault plan whose every process — brownouts and
// blackouts, drain outages, crashes with requeue and give-up, the
// starvation watchdog — is on or off.
func drawCohort(src *rng.Source) machine.Config {
	models := policy.All()
	n := 1 + src.Intn(4)
	cfg := machine.Config{Jobs: make([]machine.JobSpec, n)}
	need, most := 0, 0
	for i := range cfg.Jobs {
		j := testJob(models[src.Intn(len(models))], float64(src.Intn(4))*900)
		j.Platform.SpareNodes = src.Intn(4) // 0: unbounded
		cfg.Jobs[i] = j
		need += 16 + j.Platform.SpareNodes
		most = max(most, 16+j.Platform.SpareNodes)
	}
	if src.Bool(0.5) {
		cfg.Nodes = most + src.Intn(need-most+1)
	}
	if src.Bool(0.5) {
		cfg.Racks = make([]int, n)
		for i := range cfg.Racks {
			cfg.Racks[i] = src.Intn(n)
		}
	}
	cfg.PFSCeilingGBs = []float64{0, 3, 8, 20}[src.Intn(4)]
	cfg.MaxConcurrentDrains = src.Intn(3)
	if src.Bool(0.5) {
		cfg.Admission = machine.SmallestFit{}
	}
	f := &cfg.Faults
	if src.Bool(0.5) {
		f.BrownoutRatePerHour, f.BrownoutMeanSeconds = 2, 600
		if src.Bool(0.5) {
			f.BlackoutProb = 0.3
		}
	}
	if src.Bool(0.5) {
		f.DrainOutageRatePerHour, f.DrainOutageMeanSeconds, f.DrainOutageSlots = 2, 300, 1+src.Intn(2)
	}
	if src.Bool(0.5) {
		f.CrashRatePerHour, f.CrashMaxRetries, f.CrashBackoffSeconds = float64(1+src.Intn(4)), src.Intn(4), 100
	}
	if src.Bool(0.5) {
		f.StarvationEscalationSeconds = 120
	}
	return cfg
}

// repricings counts a run's repricings and sums their allocations.
type repricings struct {
	n     int
	total float64
}

func (r *repricings) observe(_, total, _ float64) {
	r.n++
	r.total += total
}

// TestRecycledMachineRecordMatchesFreshQuick draws random sequences of
// cohorts and seeds and runs them back to back through the pooled
// machine run records, a record serving cohorts of every size in turn.
// Every run must match the same run on a record of its own that never
// ran before — the same result (%+v, the form the benchmark digests),
// the same dispatched-event count and the same repricings — and keep
// checkMachineRun's invariants. Between them the sequences plant runs
// whose allocation observer panics mid-run: Simulate must drop that
// record, so the runs after it still match.
func TestRecycledMachineRecordMatchesFreshQuick(t *testing.T) {
	var compared, recycled, crashed, truncated, panicked int
	f := func(ops []uint64) bool {
		for _, op := range ops {
			src := rng.New(op)
			cfg := drawCohort(src)
			seed := uint64(1 + src.Intn(1000))
			if src.Bool(0.1) {
				calls, at := 0, 1+src.Intn(200)
				cfg.OnAlloc = func(float64, float64, float64) {
					if calls++; calls == at {
						panic("planted observer panic")
					}
				}
				func() {
					defer func() {
						if recover() != nil {
							panicked++
						}
					}()
					machine.Simulate(cfg, seed)
				}()
				continue
			}
			var gotP, wantP repricings
			cfg.OnAlloc = gotP.observe
			got, gotN, re := machine.SimulatePooled(cfg, seed)
			cfg.OnAlloc = wantP.observe
			want, wantN := machine.SimulateFresh(cfg, seed)
			compared++
			if re {
				recycled++
			}
			if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w || gotN != wantN || gotP != wantP {
				t.Errorf("op %#x seed %d: recycled record ran\n%s\nin %d events and %+v repricings, a fresh one\n%s\nin %d and %+v",
					op, seed, g, gotN, gotP, w, wantN, wantP)
				return false
			}
			if err := checkMachineRun(cfg, seed, got); err != nil {
				t.Errorf("op %#x seed %d: %v", op, seed, err)
				return false
			}
			crashed += got.TenantCrashes
			for _, jr := range got.Jobs {
				if jr.Run.Truncated {
					truncated++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d runs compared (%d on recycled records), %d crashes, %d tenants truncated, %d runs panicked",
		compared, recycled, crashed, truncated, panicked)
	if recycled == 0 || crashed == 0 || truncated == 0 || panicked == 0 {
		t.Fatal("the sequences missed a recycled record, a crash, a truncation or a panicking run")
	}
}
