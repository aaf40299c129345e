package stepsim

// The callback contract of sim.Engine that the continuation-passing port
// (app.go) and the machine layer's shared-clock driver are written
// against: tie-break order, the step primitives, cancellation and
// compaction, the horizon rule, the watchdog and the engine pool. The
// alarms app.go arms are held to the heap by sim's FuzzEngineAlarms.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pckpt/internal/sim"
)

// TestTieBreakFIFO pins the determinism contract: simultaneous events
// fire in schedule order — the tie-break processes share too.
func TestTieBreakFIFO(t *testing.T) {
	e := sim.NewEngine()
	var got []int
	for i := 0; i < 8; i++ {
		i := i
		e.After(5, "", func() { got = append(got, i) })
	}
	e.After(1, "", func() { got = append(got, -1) })
	e.RunAll()
	want := []int{-1, 0, 1, 2, 3, 4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order %v, want %v", got, want)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("Now() = %g after RunAll, want 5", e.Now())
	}
}

// TestPrimitives exercises the PeekNextEventTime / ProcessNextEvent
// decomposition an external shared-clock driver uses.
func TestPrimitives(t *testing.T) {
	e := sim.NewEngine()
	if _, ok := e.PeekNextEventTime(); ok {
		t.Fatal("fresh engine peeks an event")
	}
	if e.ProcessNextEvent() {
		t.Fatal("fresh engine processed an event")
	}

	fired := 0
	e.After(2, "", func() { fired++ })
	e.After(7, "", func() { fired++ })
	if at, ok := e.PeekNextEventTime(); !ok || at != 2 {
		t.Fatalf("PeekNextEventTime = (%g, %t), want (2, true)", at, ok)
	}
	if !e.ProcessNextEvent() {
		t.Fatal("ProcessNextEvent found nothing")
	}
	if e.Now() != 2 || fired != 1 {
		t.Fatalf("after one step: now=%g fired=%d, want 2/1", e.Now(), fired)
	}
	if at, ok := e.PeekNextEventTime(); !ok || at != 7 {
		t.Fatalf("PeekNextEventTime = (%g, %t), want (7, true)", at, ok)
	}
	if !e.ProcessNextEvent() {
		t.Fatal("second ProcessNextEvent found nothing")
	}
	if e.ProcessNextEvent() {
		t.Fatal("drained engine still processed an event")
	}
	if fired != 2 || e.Now() != 7 {
		t.Fatalf("final state now=%g fired=%d, want 7/2", e.Now(), fired)
	}
}

// TestCancelledHeadSkipped: the primitives must report the next LIVE
// event — a cancelled timer at the heap head is invisible to Peek.
func TestCancelledHeadSkipped(t *testing.T) {
	e := sim.NewEngine()
	fired := ""
	tm := e.After(1, "victim", func() { fired += "victim" })
	e.After(3, "", func() { fired += "live" })
	e.Cancel(tm)
	if at, ok := e.PeekNextEventTime(); !ok || at != 3 {
		t.Fatalf("PeekNextEventTime = (%g, %t), want (3, true) past cancelled head", at, ok)
	}
	e.RunAll()
	if fired != "live" {
		t.Fatalf("fired = %q, want only the live event", fired)
	}
	// Cancel of the zero Timer and double cancel are no-ops.
	e.Cancel(sim.Timer{})
	e.Cancel(tm)
}

// TestInterruptReschedulePattern pins the wait/interrupt shape app.go
// relies on: cancel the pending wake, schedule the interrupt path at the
// current time, and the interrupt fires before later same-time events
// scheduled after it but after earlier ones — pure (time, seq) order.
func TestInterruptReschedulePattern(t *testing.T) {
	e := sim.NewEngine()
	var order []string
	wake := e.After(100, "app", func() { order = append(order, "wake") })
	e.After(5, "", func() {
		order = append(order, "injector")
		e.Cancel(wake)
		e.After(0, "app", func() { order = append(order, "interrupt") })
	})
	e.After(5, "", func() { order = append(order, "later") })
	e.RunAll()
	want := []string{"injector", "later", "interrupt"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestRunHorizon: Run(until) advances the clock to the horizon when
// events remain beyond it, mirroring SimPy's run(until=...).
func TestRunHorizon(t *testing.T) {
	e := sim.NewEngine()
	fired := 0
	e.After(10, "", func() { fired++ })
	e.After(30, "", func() { fired++ })
	if now := e.Run(20); now != 20 {
		t.Fatalf("Run(20) = %g, want 20", now)
	}
	if fired != 1 {
		t.Fatalf("fired %d events before horizon, want 1", fired)
	}
	if now := e.RunAll(); now != 30 || fired != 2 {
		t.Fatalf("RunAll = %g fired=%d, want 30/2", now, fired)
	}
	// Run past the last event returns the last event time, not the horizon.
	e2 := sim.NewEngine()
	e2.After(4, "", func() {})
	if now := e2.Run(50); now != 4 {
		t.Fatalf("Run(50) = %g, want 4 (heap drained first)", now)
	}

	// A horizon before the clock, or NaN, is refused: Run never turns the
	// clock back past events that have already run.
	for _, until := range []float64{3, math.NaN()} {
		e3 := sim.NewEngine()
		e3.After(10, "", func() {})
		e3.After(15, "", func() {})
		if now := e3.Run(12); now != 12 {
			t.Fatalf("Run(12) = %g, want 12", now)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Run(%g) after Run(12) did not panic; Now() = %g", until, e3.Now())
				}
			}()
			e3.Run(until)
		}()
		if e3.Now() != 12 {
			t.Errorf("refused Run(%g) moved the clock to %g", until, e3.Now())
		}
	}
}

// TestSchedulePastPanics: a negative delay lands before the clock, and
// the engine refuses to schedule into the past.
func TestSchedulePastPanics(t *testing.T) {
	e := sim.NewEngine()
	e.After(10, "", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.After(-5, "", func() {})
	})
	e.RunAll()
}

// TestScheduleNaNPanics: a NaN time fails the past-time check. Queued or
// armed, it would compare false against every key and silently break
// the (time, seq) order dispatch relies on.
func TestScheduleNaNPanics(t *testing.T) {
	for _, c := range []struct {
		name     string
		schedule func(e *sim.Engine)
	}{
		{"After", func(e *sim.Engine) { e.After(math.NaN(), "", func() {}) }},
		{"CallAt", func(e *sim.Engine) { e.CallAt(math.NaN(), "", func(float64) {}, 0) }},
		{"Arm", func(e *sim.Engine) {
			var a sim.Alarm
			e.Bind(&a, "", func(float64) {})
			a.Arm(math.NaN(), 0)
		}},
	} {
		e := sim.NewEngine()
		e.After(10, "", func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a NaN event time did not panic", c.name)
				}
			}()
			c.schedule(e)
		})
		e.RunAll()
	}
}

// TestAlarmPrimitives: an alarm fires in (time, seq) order with the heap,
// under the sequence number it took when armed; re-arming replaces its
// setting and takes a new number; a disarmed alarm never fires; and a
// dispatched alarm counts for Dispatched and trips the watchdog under its
// bound name. FuzzEngineAlarms (internal/sim) holds arbitrary programs
// of these calls to the heap.
func TestAlarmPrimitives(t *testing.T) {
	e := sim.NewEngine()
	var got []string
	rec := func(s string) func(float64) {
		return func(arg float64) { got = append(got, fmt.Sprintf("%s@%g/%g", s, e.Now(), arg)) }
	}
	var early, late, off sim.Alarm
	e.Bind(&early, "early", rec("early"))
	e.Bind(&late, "late", rec("late"))
	e.Bind(&off, "off", rec("off"))
	late.Arm(5, 1)                          // ahead of "queued"
	e.CallAt(5, "queued", rec("queued"), 2) // ahead of "early"
	early.Arm(5, 3)
	late.Arm(5, 4) // re-armed: now behind "early"
	off.Arm(1, 0)
	off.Disarm()
	off.Disarm() // disarming an unarmed alarm is a no-op
	if at, ok := e.PeekNextEventTime(); !ok || at != 5 {
		t.Fatalf("PeekNextEventTime = (%g, %t), want (5, true) past the disarmed alarm", at, ok)
	}
	e.RunAll()
	if want := "queued@5/2 early@5/3 late@5/4"; strings.Join(got, " ") != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
	if e.Dispatched() != 3 {
		t.Fatalf("Dispatched = %d, want 3", e.Dispatched())
	}

	w := sim.NewEngine()
	w.SetWatchdog(1, 0)
	var tick sim.Alarm
	w.Bind(&tick, "tick", func(float64) {})
	tick.Arm(1, 0)
	w.RunAll()
	tick.Arm(3, 0)
	defer func() {
		trip, ok := recover().(*sim.WatchdogError)
		if !ok || trip.Events != 2 || trip.Now != 3 || trip.Name != "tick" {
			t.Fatalf("WatchdogError = %+v, want event 2 at t=3 named tick", trip)
		}
	}()
	w.RunAll()
}

// TestWatchdogEventLimit: a self-rescheduling zero-delay event (the
// callback livelock shape) trips the armed event limit with a
// *sim.WatchdogError naming the event.
func TestWatchdogEventLimit(t *testing.T) {
	e := sim.NewEngine()
	e.SetWatchdog(100, 0)
	var spin func()
	spin = func() { e.After(0, "spinner", spin) }
	e.After(0, "spinner", spin)
	defer func() {
		w, ok := recover().(*sim.WatchdogError)
		if !ok {
			t.Fatalf("expected *sim.WatchdogError, got %v", w)
		}
		if w.Reason != "event limit" || w.Name != "spinner" {
			t.Fatalf("WatchdogError = %+v, want event limit on spinner", w)
		}
	}()
	e.RunAll()
}

// TestWatchdogSimTimeLimit trips the clock ceiling.
func TestWatchdogSimTimeLimit(t *testing.T) {
	e := sim.NewEngine()
	e.SetWatchdog(0, 50)
	var tick func()
	tick = func() { e.After(10, "", tick) }
	e.After(10, "", tick)
	defer func() {
		w, ok := recover().(*sim.WatchdogError)
		if !ok || w.Reason != "sim-time limit" {
			t.Fatalf("expected sim-time WatchdogError, got %v", w)
		}
	}()
	e.RunAll()
}

// TestCompactionPreservesOrder: a storm of cancellations triggers the
// lazy-cancel compaction pass, which must not reorder surviving
// same-timestamp events.
func TestCompactionPreservesOrder(t *testing.T) {
	e := sim.NewEngine()
	var got []int
	timers := make([]sim.Timer, 0, 200)
	for i := 0; i < 200; i++ {
		i := i
		if i%4 == 0 {
			e.After(100, "", func() { got = append(got, i) })
			continue
		}
		timers = append(timers, e.After(100, "victim", func() { got = append(got, -i) }))
	}
	for _, tm := range timers {
		e.Cancel(tm) // crosses the ≥64 && ≥half threshold → compaction
	}
	e.RunAll()
	if len(got) != 50 {
		t.Fatalf("fired %d events, want the 50 survivors", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("survivors fired out of schedule order: %v", got)
		}
	}
}

// TestReleaseReuse: a released engine comes back with a zero clock and
// no leftover watchdog, and a non-empty engine refuses to be pooled.
func TestReleaseReuse(t *testing.T) {
	e := sim.NewEngine()
	e.SetWatchdog(10, 10)
	e.After(5, "", func() {})
	e.RunAll()
	e.Release()
	e2 := sim.NewEngine()
	if _, pending := e2.PeekNextEventTime(); e2.Now() != 0 || pending {
		t.Fatalf("reused engine not reset: now=%g pending=%t", e2.Now(), pending)
	}
	e2.After(1, "", func() {})
	e2.Release() // pending events: must be a no-op
	if _, pending := e2.PeekNextEventTime(); !pending {
		t.Fatal("Release with pending events dropped them")
	}
	e2.RunAll()
	e2.Release()
}

// TestDispatchedCounts: the step-rate numerator counts live dispatches
// only, not cancelled entries.
func TestDispatchedCounts(t *testing.T) {
	e := sim.NewEngine()
	tm := e.After(1, "x", func() {})
	e.Cancel(tm)
	for i := 0; i < 5; i++ {
		e.After(float64(i), "", func() {})
	}
	e.RunAll()
	if e.Dispatched() != 5 {
		t.Fatalf("Dispatched = %d, want 5", e.Dispatched())
	}
}

// TestSharedClockInterleave drives two engines the way a multi-instance
// driver would — always stepping the one with the earlier next event —
// and checks the merged order is globally time-sorted.
func TestSharedClockInterleave(t *testing.T) {
	a, b := sim.NewEngine(), sim.NewEngine()
	var merged []float64
	tick := func(e *sim.Engine, period float64, n int) {
		var fn func()
		i := 0
		fn = func() {
			merged = append(merged, e.Now())
			i++
			if i < n {
				e.After(period, "", fn)
			}
		}
		e.After(period, "", fn)
	}
	tick(a, 3, 10)
	tick(b, 5, 6)
	for {
		ta, oka := a.PeekNextEventTime()
		tb, okb := b.PeekNextEventTime()
		switch {
		case !oka && !okb:
			goto done
		case !okb || (oka && ta <= tb):
			if !a.ProcessNextEvent() {
				t.Fatal("a had a peeked event but processed nothing")
			}
		default:
			if !b.ProcessNextEvent() {
				t.Fatal("b had a peeked event but processed nothing")
			}
		}
	}
done:
	if len(merged) != 16 {
		t.Fatalf("merged %d events, want 16", len(merged))
	}
	last := math.Inf(-1)
	for _, at := range merged {
		if at < last {
			t.Fatalf("merged clock went backwards: %v", merged)
		}
		last = at
	}
}
