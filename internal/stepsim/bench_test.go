package stepsim_test

import (
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/queue"
	"pckpt/internal/sim"
	"pckpt/internal/stepsim"
	"pckpt/internal/workload"
)

// BenchmarkStepHotPath is the step-tier counterpart of
// sim.BenchmarkWaitHotPath: one consumer repeatedly sleeping on the
// clock. In the process layer each wait is a park/unpark pair across a
// goroutine boundary; here it is a heap push and a function call. The
// events/sec ratio between the two benches is the tier-0 headroom claim
// benchfmt tracks.
func BenchmarkStepHotPath(b *testing.B) {
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(1, "", tick)
		}
	}
	e.After(1, "", tick)
	b.ResetTimer()
	e.RunAll()
	b.StopTimer()
	if n != b.N {
		b.Fatalf("dispatched %d events, want %d", n, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	e.Release()
}

// BenchmarkStepInterrupt measures the cancel-and-reschedule pattern the
// app port uses for every delivered prediction: park on a long timer,
// cancel it, run the interrupt path at the current time. The process
// engine's equivalent is BenchmarkInterruptHeavy.
func BenchmarkStepInterrupt(b *testing.B) {
	e := sim.NewEngine()
	n := 0
	var park func()
	park = func() {
		wake := e.After(1e9, "sleeper", func() { b.Fatal("long wake fired") })
		e.After(1, "interrupter", func() {
			e.Cancel(wake)
			n++
			if n < b.N {
				e.After(0, "sleeper", park)
			}
		})
	}
	e.After(0, "sleeper", park)
	b.ResetTimer()
	e.RunAll()
	b.StopTimer()
	if n != b.N {
		b.Fatalf("ran %d interrupts, want %d", n, b.N)
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "interrupts/sec")
	e.Release()
}

// BenchmarkStepEngineLifecycle measures pooled construct/run/release —
// the per-run overhead a sweep pays on top of the event loop.
func BenchmarkStepEngineLifecycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		for j := 0; j < 16; j++ {
			e.After(float64(j), "", func() {})
		}
		e.RunAll()
		e.Release()
	}
}

// BenchmarkStepEpisodeDrain is the step-tier counterpart of
// pckpt.BenchmarkEpisodeProcess: one full episode drain per iteration
// in the exact shape the episode port uses — arrivals push into a
// lead-time priority queue, an idle check kicks the arbiter, and every
// grant is a heap pop plus a w-second continuation. Same 16-node
// scenario shape as the process bench; the commits/sec ratio between
// the two is the episode-machinery headroom claim benchfmt gates on.
func BenchmarkStepEpisodeDrain(b *testing.B) {
	const (
		k = 16
		w = 1.5
	)
	commits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		var q queue.PQ[int]
		busy := false
		var grant func()
		grant = func() {
			if q.Len() == 0 {
				busy = false
				return
			}
			busy = true
			q.Pop()
			commits++
			e.After(w, "", grant)
		}
		for j := 0; j < k; j++ {
			node := 1 + j*3
			deadline := float64((j*7)%k + 2)
			e.After(0.5*w*float64(j), "", func() {
				q.Push(deadline, node)
				if !busy {
					grant()
				}
			})
		}
		e.RunAll()
		e.Release()
	}
	b.StopTimer()
	if commits != k*b.N {
		b.Fatalf("committed %d nodes, want %d", commits, k*b.N)
	}
	b.ReportMetric(float64(commits)/b.Elapsed().Seconds(), "commits/sec")
}

// benchPlatform is the 48-node cohort every full-model bench runs on.
func benchPlatform() platform.Config {
	return platform.Config{
		App:    workload.App{Name: "bench-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24},
		System: failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48},
	}
}

// BenchmarkStepSimulate runs the full ported model end to end — the
// number sweeps actually see, failure stream and policy machinery
// included.
func BenchmarkStepSimulate(b *testing.B) {
	cfg := stepsim.Config{Model: policy.M2, Config: benchPlatform()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepsim.Simulate(cfg, uint64(i)+1)
	}
}

// BenchmarkStepSimulateP1 and BenchmarkStepSimulateP2 track the episode
// models end to end on the step tier — the sweep-facing numbers behind
// the default-tier flip. Informational: the gated claim is the
// micro-bench pair above.
func BenchmarkStepSimulateP1(b *testing.B) {
	cfg := stepsim.Config{Model: policy.P1, Config: benchPlatform()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepsim.Simulate(cfg, uint64(i)+1)
	}
}

func BenchmarkStepSimulateP2(b *testing.B) {
	cfg := stepsim.Config{Model: policy.P2, Config: benchPlatform()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepsim.Simulate(cfg, uint64(i)+1)
	}
}
