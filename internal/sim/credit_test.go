package sim

import (
	"math"
	"testing"
)

// TestCreditCountsAndMovesClock: a credit adds its dispatches to
// Dispatched, moves the clock to its time without running anything, and
// leaves pending events to fire as before.
func TestCreditCountsAndMovesClock(t *testing.T) {
	e := NewEngine()
	var fired []float64
	e.After(10, "later", func() { fired = append(fired, e.Now()) })
	if !e.Credit(5, 3) {
		t.Fatal("Credit refused with no watchdog armed")
	}
	if e.Now() != 3 || e.Dispatched() != 5 || len(fired) != 0 {
		t.Fatalf("after Credit(5, 3): now %g, %d dispatched, fired %v; want 3, 5, none", e.Now(), e.Dispatched(), fired)
	}
	if !e.Credit(0, 3) || e.Now() != 3 || e.Dispatched() != 5 {
		t.Fatalf("Credit(0, now) moved something: now %g, %d dispatched", e.Now(), e.Dispatched())
	}
	e.RunAll()
	if e.Now() != 10 || e.Dispatched() != 6 || len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("after RunAll: now %g, %d dispatched, fired %v; want 10, 6, [10]", e.Now(), e.Dispatched(), fired)
	}
	e.Release()
}

// TestCreditEventLimit: a credit that brings the count exactly to the
// event limit goes ahead, and the next dispatch trips as if the credited
// ones had been made; one more refuses, changing nothing, so the caller
// that makes them trips at the same event under the same name. The limit
// counts from the arming, not from construction.
func TestCreditEventLimit(t *testing.T) {
	for _, pre := range []uint64{0, 3} {
		// The reference: every dispatch made for real.
		ref := NewEngine()
		for i := uint64(0); i < pre; i++ {
			ref.After(0, "pre", func() {})
		}
		ref.RunAll()
		ref.SetWatchdog(10, 0)
		for i := 0; i < 12; i++ {
			ref.After(1, "tick", func() {})
		}
		want := tripOf(t, ref.RunAll)

		for _, n := range []uint64{10, 11} {
			e := NewEngine()
			for i := uint64(0); i < pre; i++ {
				e.After(0, "pre", func() {})
			}
			e.RunAll()
			e.SetWatchdog(10, 0)
			if ok := e.Credit(n, 1); ok != (n == 10) {
				t.Fatalf("pre %d: Credit(%d) under a limit of 10 reported %v", pre, n, ok)
			}
			if n == 11 {
				if e.Now() != 0 || e.Dispatched() != pre {
					t.Fatalf("pre %d: a refused credit changed the engine: now %g, %d dispatched", pre, e.Now(), e.Dispatched())
				}
				e.Credit(0, 1)
				for i := 0; i < 12; i++ {
					e.After(0, "tick", func() {})
				}
			} else {
				e.After(0, "tick", func() {})
			}
			if got := tripOf(t, e.RunAll); *got != *want {
				t.Fatalf("pre %d, credit %d: tripped %+v, the full run %+v", pre, n, got, want)
			}
		}
	}
}

// TestCreditSimTimeLimit: a credit whose last dispatch lands exactly on
// the sim-time limit goes ahead; one an ulp past it refuses, changing
// nothing, and the dispatch made there trips.
func TestCreditSimTimeLimit(t *testing.T) {
	e := NewEngine()
	e.SetWatchdog(0, 100)
	if !e.Credit(3, 100) || e.Now() != 100 || e.Dispatched() != 3 {
		t.Fatalf("Credit to the limit: now %g, %d dispatched", e.Now(), e.Dispatched())
	}
	past := math.Nextafter(100, math.Inf(1))
	if e.Credit(1, past) || e.Now() != 100 || e.Dispatched() != 3 {
		t.Fatalf("Credit past the limit went ahead: now %g, %d dispatched", e.Now(), e.Dispatched())
	}
	e.CallAt(past, "late", func(float64) {}, 0)
	got := tripOf(t, e.RunAll)
	if want := (WatchdogError{Reason: "sim-time limit", Events: 4, Now: past, Name: "late"}); *got != want {
		t.Fatalf("tripped %+v, want %+v", got, want)
	}
}

// TestCreditPanics: a NaN time or one before the clock panics.
func TestCreditPanics(t *testing.T) {
	for _, at := range []float64{math.NaN(), 4} {
		e := NewEngine()
		e.Credit(1, 5)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Credit(1, %g) at t=5 did not panic", at)
				}
			}()
			e.Credit(1, at)
		}()
		if e.Now() != 5 || e.Dispatched() != 1 {
			t.Fatalf("a panicking Credit changed the engine: now %g, %d dispatched", e.Now(), e.Dispatched())
		}
	}
}

// tripOf runs run and returns the watchdog trip it panics with.
func tripOf(t *testing.T, run func() float64) (w *WatchdogError) {
	t.Helper()
	defer func() {
		v, ok := recover().(*WatchdogError)
		if !ok {
			t.Fatal("the run did not trip the watchdog")
		}
		w = v
	}()
	run()
	return nil
}
