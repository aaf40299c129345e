package sim

import (
	"fmt"
	"testing"
)

// BenchmarkWaitHotPath is the engine's single most important number: one
// process waiting in a tight ladder, i.e. one engine event + two channel
// handoffs per simulated event. events/sec here bounds every tier's
// throughput.
func BenchmarkWaitHotPath(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	env.Spawn("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if err := p.Wait(1); err != nil {
				b.Errorf("unexpected interrupt: %v", err)
				return
			}
		}
	})
	b.ResetTimer()
	env.RunAll()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkTriggerPingPong measures the broadcast-event path: a waiter and
// a trigger process handing an event back and forth (WaitEvent + Trigger +
// Reset per round), the shape of nodesim's post/ready handshake.
func BenchmarkTriggerPingPong(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	ev := NewEvent(env)
	env.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if err := p.WaitEvent(ev); err != nil {
				b.Errorf("unexpected interrupt: %v", err)
				return
			}
			ev.Reset()
		}
	})
	env.Spawn("trigger", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
			ev.Trigger()
		}
	})
	b.ResetTimer()
	env.RunAll()
}

// BenchmarkInterruptHeavy measures the interrupt delivery path, which both
// cancels a pending wake (leaving a dead heap entry behind) and schedules
// a fresh one — the dense-prediction-stream shape that makes models P1/P2
// engine-bound.
func BenchmarkInterruptHeavy(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	victim := env.Spawn("victim", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(1e12) // always cut short by the injector
		}
	})
	env.Spawn("injector", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
			victim.Interrupt("bench")
		}
	})
	b.ResetTimer()
	env.RunAll()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "interrupts/sec")
}

// BenchmarkSpawnChurn measures process startup/teardown: b.N short-lived
// processes spawned back to back, the per-run cost every tier pays for its
// node/coordinator/injector population.
func BenchmarkSpawnChurn(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	done := 0
	env.Spawn("spawner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			child := env.Spawn("child", func(c *Proc) {
				c.Wait(1)
				done++
			})
			if err := p.Join(child); err != nil {
				b.Errorf("join: %v", err)
				return
			}
		}
	})
	b.ResetTimer()
	env.RunAll()
	if done != b.N {
		b.Fatalf("only %d of %d children ran", done, b.N)
	}
}

// BenchmarkRunLifecycle measures a complete small run end to end — env
// construction, a handful of processes exchanging events, teardown — the
// unit of work a parameter sweep repeats thousands of times.
func BenchmarkRunLifecycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := NewEnv()
		for w := 0; w < 8; w++ {
			env.Spawn(fmt.Sprintf("w%d", w), func(p *Proc) {
				for k := 0; k < 32; k++ {
					p.Wait(1)
				}
			})
		}
		env.RunAll()
		releaseForBench(env)
	}
}

// releaseForBench hands the environment back for reuse. It is a seam: the
// baseline harness ran it as a no-op, the pooled engine releases buffers.
func releaseForBench(e *Env) { e.Release() }
