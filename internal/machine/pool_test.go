package machine_test

import (
	"runtime"
	"testing"
	"time"

	"pckpt/internal/machine"
	"pckpt/internal/metrics"
	"pckpt/internal/policy"
)

// TestPooledTenantTablesReleaseMeteredRun: a machine run returns every
// tenant's run record, node table included, to the step tier's pool,
// and a metered tenant's record holds the run's metric handles (the
// table's observer among them). The pool must not keep them alive: one
// GC after the run (which moves the pooled records to the pool's victim
// cache, still reachable) every tenant model's vulnerable-node gauge
// must be collectable. Every model is watched because a solo baseline
// re-Resets one pooled record, which would hide a missing clear on that
// one.
func TestPooledTenantTablesReleaseMeteredRun(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts at random")
	}
	models := []policy.ID{policy.M1, policy.P2, policy.B}
	freed := make(chan policy.ID, len(models))
	func() {
		reg := metrics.New()
		jobs := make([]machine.JobSpec, len(models))
		for i, id := range models {
			jobs[i] = testJob(id, 0)
			gauge := reg.Gauge("sim." + id.String() + ".vulnerable_nodes")
			runtime.SetFinalizer(gauge, func(*metrics.Gauge) { freed <- id })
		}
		machine.Simulate(machine.Config{Jobs: jobs, Metrics: reg}, 3)
	}()
	runtime.GC()
	pending := make(map[policy.ID]bool, len(models))
	for _, id := range models {
		pending[id] = true
	}
	timeout := time.After(5 * time.Second)
	for len(pending) > 0 {
		select {
		case id := <-freed:
			delete(pending, id)
		case <-timeout:
			t.Fatalf("pooled node tables still hold the metered run's observers for %v", pending)
		}
	}
}
