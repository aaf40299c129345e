package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestSingleProcessWait(t *testing.T) {
	env := NewEnv()
	var at []float64
	env.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			if err := p.Wait(2.5); err != nil {
				t.Errorf("unexpected interrupt: %v", err)
			}
			at = append(at, env.Now())
		}
	})
	end := env.RunAll()
	want := []float64{2.5, 5, 7.5}
	if len(at) != 3 {
		t.Fatalf("process woke %d times, want 3", len(at))
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("wake %d at %g, want %g", i, at[i], want[i])
		}
	}
	if end != 7.5 {
		t.Fatalf("final time %g, want 7.5", end)
	}
}

func TestZeroDelayWait(t *testing.T) {
	env := NewEnv()
	ran := false
	env.Spawn("p", func(p *Proc) {
		if err := p.Wait(0); err != nil {
			t.Errorf("Wait(0) err: %v", err)
		}
		ran = true
	})
	env.RunAll()
	if !ran {
		t.Fatal("process never completed")
	}
}

func TestNegativeWaitPanics(t *testing.T) {
	env := NewEnv()
	env.Spawn("p", func(p *Proc) { p.Wait(-1) })
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("negative Wait did not propagate a panic")
		}
	}()
	env.RunAll()
}

func TestTwoProcessesInterleave(t *testing.T) {
	env := NewEnv()
	var log []string
	mk := func(name string, step float64) {
		env.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Wait(step)
				log = append(log, fmt.Sprintf("%s@%g", name, env.Now()))
			}
		})
	}
	mk("a", 2) // wakes at 2, 4, 6
	mk("b", 3) // wakes at 3, 6, 9
	env.RunAll()
	got := strings.Join(log, " ")
	// At t=6 both are due; a was scheduled earlier in that round... each
	// reschedules after waking, so order at 6 is a (scheduled at 4) then b
	// (scheduled at 3). b's wake at 6 was scheduled at t=3, a's at t=4,
	// so b fires first by insertion order.
	want := "a@2 b@3 a@4 b@6 a@6 b@9"
	if got != want {
		t.Fatalf("interleaving = %q, want %q", got, want)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() string {
		env := NewEnv()
		var log []string
		for i := 0; i < 5; i++ {
			i := i
			env.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Wait(1) // all five procs tie at every integer time
					log = append(log, fmt.Sprintf("%d@%g", i, env.Now()))
				}
			})
		}
		env.RunAll()
		return strings.Join(log, " ")
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestAtCallback(t *testing.T) {
	env := NewEnv()
	var times []float64
	env.At(5, func() { times = append(times, env.Now()) })
	env.At(1, func() { times = append(times, env.Now()) })
	env.RunAll()
	if len(times) != 2 || times[0] != 1 || times[1] != 5 {
		t.Fatalf("callbacks at %v, want [1 5]", times)
	}
}

func TestRunHorizon(t *testing.T) {
	env := NewEnv()
	fired := 0
	env.At(1, func() { fired++ })
	env.At(10, func() { fired++ })
	end := env.Run(5)
	if fired != 1 {
		t.Fatalf("fired %d callbacks before horizon, want 1", fired)
	}
	// SimPy parity: run(until) leaves the clock AT the horizon, not at the
	// last event before it. The engine used to return 1 here.
	if end != 5 {
		t.Fatalf("clock at %g, want 5 (the horizon)", end)
	}
	env.RunAll()
	if fired != 2 {
		t.Fatalf("fired %d callbacks total, want 2", fired)
	}
}

// TestRunHorizonAnchorsRelativeTime is the regression the old horizon
// semantics would fail: work scheduled relative to "now" after a bounded
// run must be anchored at the horizon. Under the old behaviour the clock
// stuck at the last processed event, so a follow-up At(d) landed early.
func TestRunHorizonAnchorsRelativeTime(t *testing.T) {
	env := NewEnv()
	env.At(1, func() {})
	env.At(100, func() {})
	if end := env.Run(7); end != 7 || env.Now() != 7 {
		t.Fatalf("Run(7) = %g, Now() = %g, want both 7", end, env.Now())
	}
	var at float64
	env.At(2, func() { at = env.Now() })
	env.RunAll()
	if at != 9 {
		t.Fatalf("post-horizon callback fired at %g, want 9 (= 7 + 2)", at)
	}
	// A horizon before the first event still advances the clock.
	env2 := NewEnv()
	env2.At(50, func() {})
	if end := env2.Run(3); end != 3 {
		t.Fatalf("Run(3) with no due events = %g, want 3", end)
	}
	env2.RunAll()
}

func TestInterruptWait(t *testing.T) {
	env := NewEnv()
	var gotReason any
	var wokeAt float64
	victim := env.Spawn("victim", func(p *Proc) {
		err := p.Wait(100)
		wokeAt = env.Now()
		if iv, ok := err.(*Interrupt); ok {
			gotReason = iv.Reason
		}
	})
	env.Spawn("injector", func(p *Proc) {
		p.Wait(3)
		if !victim.Interrupt("node-failure") {
			t.Error("Interrupt reported no delivery")
		}
	})
	env.RunAll()
	if gotReason != "node-failure" {
		t.Fatalf("reason = %v, want node-failure", gotReason)
	}
	if wokeAt != 3 {
		t.Fatalf("victim woke at %g, want 3", wokeAt)
	}
}

func TestInterruptCancelsTimeout(t *testing.T) {
	env := NewEnv()
	wakes := 0
	victim := env.Spawn("victim", func(p *Proc) {
		p.Wait(10)
		wakes++
		p.Wait(50) // second wait must NOT be woken by the stale timeout
		wakes++
	})
	env.Spawn("injector", func(p *Proc) {
		p.Wait(1)
		victim.Interrupt("x")
	})
	end := env.RunAll()
	if wakes != 2 {
		t.Fatalf("victim woke %d times, want 2", wakes)
	}
	// First wait interrupted at 1, second wait runs full 50 → ends at 51.
	// If the cancelled wake at t=10 leaked, the run would end at 10+50=60
	// or the second wait would end early.
	if end != 51 {
		t.Fatalf("end time %g, want 51", end)
	}
}

func TestDoubleInterruptDeliveredOnce(t *testing.T) {
	env := NewEnv()
	interrupts := 0
	victim := env.Spawn("victim", func(p *Proc) {
		if err := p.Wait(100); err != nil {
			interrupts++
		}
		if err := p.Wait(100); err != nil {
			interrupts++
		}
	})
	env.Spawn("injector", func(p *Proc) {
		p.Wait(1)
		victim.Interrupt("first")
		victim.Interrupt("second") // same instant: must be swallowed
	})
	env.RunAll()
	if interrupts != 1 {
		t.Fatalf("%d interrupts delivered, want 1", interrupts)
	}
}

func TestInterruptFinishedProcIsNoop(t *testing.T) {
	env := NewEnv()
	victim := env.Spawn("victim", func(p *Proc) {})
	env.Spawn("late", func(p *Proc) {
		p.Wait(5)
		if victim.Interrupt("too late") {
			t.Error("Interrupt on finished process reported delivery")
		}
	})
	env.RunAll()
}

func TestEventBroadcast(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	var woke []string
	for _, name := range []string{"h1", "h2", "h3"} {
		name := name
		env.Spawn(name, func(p *Proc) {
			if err := p.WaitEvent(ev); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			woke = append(woke, fmt.Sprintf("%s@%g", name, env.Now()))
		})
	}
	env.Spawn("committer", func(p *Proc) {
		p.Wait(7)
		ev.Trigger()
	})
	env.RunAll()
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, w := range woke {
		if !strings.HasSuffix(w, "@7") {
			t.Fatalf("waiter %s woke at wrong time", w)
		}
	}
}

func TestEventAlreadyTriggered(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	var at float64
	env.Spawn("early", func(p *Proc) { ev.Trigger() })
	env.Spawn("late", func(p *Proc) {
		p.Wait(4)
		if err := p.WaitEvent(ev); err != nil {
			t.Errorf("WaitEvent: %v", err)
		}
		at = env.Now()
	})
	env.RunAll()
	if at != 4 {
		t.Fatalf("late waiter resumed at %g, want 4 (immediate)", at)
	}
}

func TestEventReset(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	count := 0
	env.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 2; i++ {
			if err := p.WaitEvent(ev); err != nil {
				t.Errorf("WaitEvent: %v", err)
			}
			count++
			ev.Reset()
		}
	})
	env.Spawn("trigger", func(p *Proc) {
		p.Wait(1)
		ev.Trigger()
		p.Wait(1)
		ev.Trigger()
	})
	env.RunAll()
	if count != 2 {
		t.Fatalf("waiter passed %d times, want 2", count)
	}
}

func TestInterruptWhileWaitingOnEvent(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	var err error
	victim := env.Spawn("victim", func(p *Proc) {
		err = p.WaitEvent(ev)
	})
	env.Spawn("injector", func(p *Proc) {
		p.Wait(2)
		victim.Interrupt("failure")
	})
	env.RunAll()
	iv, ok := err.(*Interrupt)
	if !ok || iv.Reason != "failure" {
		t.Fatalf("err = %v, want interrupt(failure)", err)
	}
	if ev.Waiters() != 0 {
		t.Fatalf("event still holds %d waiters after interrupt", ev.Waiters())
	}
}

func TestJoin(t *testing.T) {
	env := NewEnv()
	var joinedAt float64
	worker := env.Spawn("worker", func(p *Proc) { p.Wait(9) })
	env.Spawn("joiner", func(p *Proc) {
		if err := p.Join(worker); err != nil {
			t.Errorf("Join: %v", err)
		}
		joinedAt = env.Now()
	})
	env.RunAll()
	if joinedAt != 9 {
		t.Fatalf("joined at %g, want 9", joinedAt)
	}
}

func TestJoinFinished(t *testing.T) {
	env := NewEnv()
	worker := env.Spawn("worker", func(p *Proc) {})
	ok := false
	env.Spawn("joiner", func(p *Proc) {
		p.Wait(3)
		if err := p.Join(worker); err != nil {
			t.Errorf("Join: %v", err)
		}
		ok = env.Now() == 3
	})
	env.RunAll()
	if !ok {
		t.Fatal("Join on finished process did not return immediately")
	}
}

func TestSpawnFromProcess(t *testing.T) {
	env := NewEnv()
	var childAt float64
	env.Spawn("parent", func(p *Proc) {
		p.Wait(2)
		child := env.Spawn("child", func(c *Proc) {
			c.Wait(3)
			childAt = env.Now()
		})
		p.Join(child)
		if env.Now() != 5 {
			t.Errorf("parent resumed at %g, want 5", env.Now())
		}
	})
	env.RunAll()
	if childAt != 5 {
		t.Fatalf("child finished at %g, want 5", childAt)
	}
}

func TestSpawnAt(t *testing.T) {
	env := NewEnv()
	var startedAt float64
	env.SpawnAt(11, "late", func(p *Proc) { startedAt = env.Now() })
	env.RunAll()
	if startedAt != 11 {
		t.Fatalf("process started at %g, want 11", startedAt)
	}
}

func TestProcCountTracksLiveProcesses(t *testing.T) {
	env := NewEnv()
	env.Spawn("a", func(p *Proc) { p.Wait(10) })
	env.Spawn("b", func(p *Proc) { p.Wait(5) })
	env.Run(6)
	if env.ProcCount() != 1 {
		t.Fatalf("ProcCount = %d at t=6, want 1", env.ProcCount())
	}
	env.RunAll()
	if env.ProcCount() != 0 {
		t.Fatalf("ProcCount = %d after RunAll, want 0", env.ProcCount())
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	env := NewEnv()
	env.Spawn("bad", func(p *Proc) {
		p.Wait(1)
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("process panic not propagated")
		}
		if !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("panic value %v does not mention boom", r)
		}
	}()
	env.RunAll()
}

func TestAliveAndDone(t *testing.T) {
	env := NewEnv()
	w := env.Spawn("w", func(p *Proc) { p.Wait(4) })
	env.At(2, func() {
		if !w.Alive() {
			t.Error("process reported dead at t=2")
		}
	})
	env.At(5, func() {
		if w.Alive() {
			t.Error("process reported alive at t=5")
		}
		if !w.Done().Triggered() {
			t.Error("done event not triggered")
		}
	})
	env.RunAll()
}

// TestManyProcessesQuick spawns a random batch of processes with random
// wait ladders and checks the clock finishes at the maximum total.
func TestManyProcessesQuick(t *testing.T) {
	f := func(steps []uint8) bool {
		if len(steps) == 0 {
			return true
		}
		if len(steps) > 32 {
			steps = steps[:32]
		}
		env := NewEnv()
		var max float64
		for i, s := range steps {
			total := float64(s%16) + 1
			if total > max {
				max = total
			}
			env.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Wait(total)
			})
		}
		return env.RunAll() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestWakeOrderMatchesScheduleOrder verifies the documented tie-breaking:
// events at identical times fire in the order they were scheduled, across
// both programming models. Process wakes, Env.At callbacks and callbacks
// scheduled directly on the env's engine all land at t=5, scheduled from
// t=0, 1 and 2 in a mixed order; they share one heap and one sequence
// counter, so they fire exactly in schedule order.
func TestWakeOrderMatchesScheduleOrder(t *testing.T) {
	env := NewEnv()
	var scheduled, fired []string
	at := func(label string) {
		scheduled = append(scheduled, label)
		env.At(5-env.Now(), func() { fired = append(fired, label) })
	}
	direct := func(label string) {
		scheduled = append(scheduled, label)
		env.eng.After(5-env.Now(), "", func() { fired = append(fired, label) })
	}
	for i := 0; i < 4; i++ {
		at(fmt.Sprintf("at%d", i))
		direct(fmt.Sprintf("eng%d", i))
	}
	for i := 0; i < 9; i++ {
		i := i
		env.SpawnAt(float64(i%3), fmt.Sprintf("p%d", i), func(p *Proc) {
			if i%2 == 0 {
				at(fmt.Sprintf("p%d-at", i))
				direct(fmt.Sprintf("p%d-eng", i))
			} else {
				direct(fmt.Sprintf("p%d-eng", i))
				at(fmt.Sprintf("p%d-at", i))
			}
			scheduled = append(scheduled, p.Name())
			if err := p.Wait(5 - env.Now()); err != nil {
				t.Errorf("%s interrupted: %v", p.Name(), err)
			}
			fired = append(fired, p.Name())
		})
	}
	if end := env.RunAll(); end != 5 {
		t.Fatalf("RunAll ended at %g, want 5", end)
	}
	if got, want := strings.Join(fired, " "), strings.Join(scheduled, " "); got != want {
		t.Fatalf("tie-broken order\n%s\nis not schedule order\n%s", got, want)
	}
}

func TestWaitOutsideProcessPanics(t *testing.T) {
	env := NewEnv()
	p := env.Spawn("p", func(p *Proc) { p.Wait(1) })
	defer func() {
		if recover() == nil {
			t.Fatal("Wait from outside the process goroutine did not panic")
		}
	}()
	p.Wait(1) // called from the test goroutine: must panic
}
