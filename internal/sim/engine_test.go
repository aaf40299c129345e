package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestInterruptBeatsSimultaneousTrigger pins the tie-breaking rule the
// C/R models depend on: when an event trigger and an interrupt land on
// the same blocked process at the same timestamp, the interrupt wins —
// in either arrival order. Trigger hands each waiter its wake timer
// precisely so a same-instant Interrupt can cancel it; and an interrupt
// that arrives first removes the process from the waiter list so the
// trigger never wakes it. Either way the process must resume exactly
// once, with the interrupt.
func TestInterruptBeatsSimultaneousTrigger(t *testing.T) {
	for _, tc := range []struct {
		name         string
		triggerFirst bool
	}{
		{"trigger-then-interrupt", true},
		{"interrupt-then-trigger", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv()
			ev := NewEvent(env)
			var wokeAt []float64
			var got []error
			victim := env.Spawn("victim", func(p *Proc) {
				err := p.WaitEvent(ev)
				wokeAt = append(wokeAt, env.Now())
				got = append(got, err)
				// A second wait must complete normally: the cancelled
				// trigger wake must not deliver a spurious resume.
				if err := p.Wait(3); err != nil {
					t.Errorf("follow-up Wait interrupted: %v", err)
				}
				wokeAt = append(wokeAt, env.Now())
			})
			env.SpawnAt(0, "controller", func(p *Proc) {
				_ = p.Wait(5)
				if tc.triggerFirst {
					ev.Trigger()
					victim.Interrupt("tie")
				} else {
					victim.Interrupt("tie")
					ev.Trigger()
				}
			})
			env.RunAll()
			if len(got) != 1 {
				t.Fatalf("victim resumed %d times from WaitEvent, want 1", len(got))
			}
			iv, ok := got[0].(*Interrupt)
			if !ok || iv.Reason != "tie" {
				t.Fatalf("WaitEvent returned %v, want *Interrupt(tie)", got[0])
			}
			if len(wokeAt) != 2 || wokeAt[0] != 5 || wokeAt[1] != 8 {
				t.Fatalf("wake times %v, want [5 8]", wokeAt)
			}
		})
	}
}

// TestEventPulse covers the non-latching trigger: waiters wake, the event
// stays re-waitable with no Reset, and pulsing with nobody queued (or
// after a latching Trigger) is a no-op.
func TestEventPulse(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	var log []string
	env.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 3; i++ {
			if err := p.WaitEvent(ev); err != nil {
				t.Errorf("wait %d interrupted: %v", i, err)
			}
			log = append(log, fmt.Sprintf("woke@%g", env.Now()))
		}
	})
	env.Spawn("pulser", func(p *Proc) {
		for i := 0; i < 3; i++ {
			_ = p.Wait(2)
			if ev.Triggered() {
				t.Error("Pulse latched the event")
			}
			ev.Pulse()
		}
	})
	env.RunAll()
	if got := strings.Join(log, " "); got != "woke@2 woke@4 woke@6" {
		t.Fatalf("pulse log %q, want three wakes at 2, 4, 6", got)
	}

	// Pulse with no waiters must not latch or wake anyone later.
	env2 := NewEnv()
	ev2 := NewEvent(env2)
	ev2.Pulse()
	if ev2.Triggered() {
		t.Fatal("Pulse on empty event latched it")
	}
	// After a latching Trigger, Pulse is a no-op and waits fall through.
	ev2.Trigger()
	ev2.Pulse()
	ran := false
	env2.Spawn("late", func(p *Proc) {
		if err := p.WaitEvent(ev2); err != nil {
			t.Errorf("wait on triggered event: %v", err)
		}
		ran = true
	})
	env2.RunAll()
	if !ran {
		t.Fatal("late waiter never ran")
	}
}

// TestEnvRelease checks the reuse lifecycle: a released environment comes
// back through NewEnv with a zeroed clock and empty state, and Release
// refuses half-run or poisoned environments instead of recycling them.
func TestEnvRelease(t *testing.T) {
	run := func() string {
		env := NewEnv()
		defer env.Release()
		if env.Now() != 0 || env.ProcCount() != 0 {
			t.Fatalf("reused env dirty: now=%g procs=%d", env.Now(), env.ProcCount())
		}
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			env.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				_ = p.Wait(float64(i + 1))
				log = append(log, fmt.Sprintf("%d@%g", i, env.Now()))
			})
		}
		env.RunAll()
		return strings.Join(log, " ")
	}
	first := run()
	for i := 0; i < 8; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d through the pool diverged: %q vs %q", i, got, first)
		}
	}

	// Release with events still pending is refused: the env stays usable.
	env := NewEnv()
	env.At(10, func() {})
	env.Release()
	if env.eng.events.Len() != 1 {
		t.Fatal("Release with pending events must be a no-op")
	}
	env.RunAll()
	env.Release()
}

// TestInterruptStormCompacts drives enough same-pattern interrupts that
// cancelled entries repeatedly cross the compaction threshold, and checks
// the surviving schedule is untouched: every process observes its
// interrupts and final wake at the right times, twice over, identically.
func TestInterruptStormCompacts(t *testing.T) {
	run := func() string {
		env := NewEnv()
		defer env.Release()
		var log []string
		const n = 100
		procs := make([]*Proc, n)
		for i := 0; i < n; i++ {
			i := i
			procs[i] = env.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				// Long waits that almost always get interrupted: each
				// abort leaves a cancelled entry deep in the heap.
				for {
					if err := p.Wait(1e6); err == nil {
						break
					}
					log = append(log, fmt.Sprintf("i%d@%g", i, env.Now()))
					if env.Now() >= 50 {
						_ = p.Wait(0.5)
						break
					}
				}
			})
		}
		env.Spawn("stormer", func(p *Proc) {
			for tick := 1; tick <= 60; tick++ {
				_ = p.Wait(1)
				for i := 0; i < n; i++ {
					if procs[i].Alive() {
						procs[i].Interrupt(tick)
					}
				}
			}
		})
		env.RunAll()
		if env.ProcCount() != 0 {
			t.Fatalf("%d processes leaked", env.ProcCount())
		}
		return strings.Join(log, " ")
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("storm run %d diverged under compaction", i)
		}
	}
}

// TestSlotReuseIsInvisible spawns far more short-lived processes than the
// engine keeps carrier goroutines for and checks every one runs with its
// own identity — recycled channels must never leak a wake across process
// lifetimes.
func TestSlotReuseIsInvisible(t *testing.T) {
	env := NewEnv()
	defer env.Release()
	const n = 5000
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		i := i
		env.SpawnAt(float64(i)*1e-3, fmt.Sprintf("g%d", i), func(p *Proc) {
			_ = p.Wait(1e-4)
			if seen[p.Name()] {
				t.Errorf("process %s ran twice", p.Name())
			}
			seen[p.Name()] = true
		})
	}
	env.RunAll()
	if len(seen) != n {
		t.Fatalf("%d distinct processes ran, want %d", len(seen), n)
	}
	if env.ProcCount() != 0 {
		t.Fatalf("%d processes leaked", env.ProcCount())
	}
}
