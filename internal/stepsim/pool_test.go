package stepsim_test

import (
	"runtime"
	"testing"
	"time"

	"pckpt/internal/metrics"
	"pckpt/internal/policy"
	"pckpt/internal/stepsim"
)

// TestPooledClusterReleasesMeteredRun: Simulate recycles its run record,
// node table included, through a pool, and a metered run installs a
// cluster observer and resolves metric handles that hold the run's
// registry. The pool must not keep them alive: one GC after the run
// (which moves the pooled record to the pool's victim cache, still
// reachable) the run's vulnerable-node gauge must be collectable.
func TestPooledClusterReleasesMeteredRun(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts at random")
	}
	freed := make(chan struct{})
	func() {
		reg := metrics.New()
		gauge := reg.Gauge("sim.P2.vulnerable_nodes")
		runtime.SetFinalizer(gauge, func(*metrics.Gauge) { close(freed) })
		prepare(t, stepsim.Config{Model: policy.P2, Config: testPlatforms()["clean"]}).Run(3, reg)
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("a pooled cluster still holds the metered run's observer")
	}
}
