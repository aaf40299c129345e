package stepsim_test

import (
	"runtime"
	"testing"
	"time"

	"pckpt/internal/metrics"
	"pckpt/internal/policy"
	"pckpt/internal/stepsim"
)

// TestPooledClusterReleasesMeteredRun: Simulate recycles its cluster
// through a pool, and a metered run installs a cluster observer that
// holds the run's metric handles. The pool must not keep them alive: one
// GC after the run (which moves the pooled cluster to the pool's victim
// cache, still reachable) the run's vulnerable-node gauge must be
// collectable.
func TestPooledClusterReleasesMeteredRun(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts at random")
	}
	freed := make(chan struct{})
	func() {
		reg := metrics.New()
		gauge := reg.Gauge("sim.P2.vulnerable_nodes")
		runtime.SetFinalizer(gauge, func(*metrics.Gauge) { close(freed) })
		stepsim.Simulate(stepsim.Config{Model: policy.P2, Config: testPlatforms()["clean"], Metrics: reg}, 3)
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("a pooled cluster still holds the metered run's observer")
	}
}
