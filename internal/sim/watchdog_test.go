package sim

import (
	"errors"
	"testing"
)

// runExpectingWatchdog runs the env and returns the recovered
// *WatchdogError, failing the test if the run finished or panicked with
// anything else.
func runExpectingWatchdog(t *testing.T, env *Env) *WatchdogError {
	t.Helper()
	var wd *WatchdogError
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("livelocked run finished without tripping the watchdog")
			}
			err, ok := r.(error)
			if !ok || !errors.As(err, &wd) {
				t.Fatalf("recovered %v (%T), want *WatchdogError", r, r)
			}
		}()
		env.RunAll()
	}()
	return wd
}

func TestWatchdogEventLimitCatchesLivelock(t *testing.T) {
	env := NewEnv()
	env.SetWatchdog(10000, 0)
	// A Wait(0) loop never advances the clock: without the watchdog,
	// RunAll would spin forever.
	env.Spawn("livelocked", func(p *Proc) {
		for {
			p.Wait(0)
		}
	})
	wd := runExpectingWatchdog(t, env)
	if wd.Reason != "event limit" {
		t.Errorf("Reason = %q, want %q", wd.Reason, "event limit")
	}
	if wd.Events <= 10000 {
		t.Errorf("Events = %d, want > 10000", wd.Events)
	}
	// The diagnostic contract: the trip names the stuck process by its
	// spawn name, exactly.
	if wd.Name != "livelocked" {
		t.Errorf("Name = %q (%s), want the stuck process %q", wd.Name, wd.Error(), "livelocked")
	}
}

func TestWatchdogSimTimeLimit(t *testing.T) {
	env := NewEnv()
	env.SetWatchdog(0, 100)
	env.Spawn("runaway", func(p *Proc) {
		for {
			p.Wait(1)
		}
	})
	wd := runExpectingWatchdog(t, env)
	if wd.Reason != "sim-time limit" {
		t.Errorf("Reason = %q, want %q", wd.Reason, "sim-time limit")
	}
	if wd.Now <= 100 {
		t.Errorf("tripped at t=%g, want past the 100s limit", wd.Now)
	}
}

func TestWatchdogDisarmedByRelease(t *testing.T) {
	env := NewEnv()
	env.SetWatchdog(3, 0)
	env.Release()
	env = NewEnv()
	done := false
	env.Spawn("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Wait(1)
		}
		done = true
	})
	env.RunAll()
	if !done {
		t.Fatal("fresh env inherited a stale watchdog")
	}
}

func TestWatchdogOffByDefault(t *testing.T) {
	env := NewEnv()
	count := 0
	env.Spawn("p", func(p *Proc) {
		for i := 0; i < 50000; i++ {
			p.Wait(0)
			count++
		}
	})
	env.RunAll()
	if count != 50000 {
		t.Fatalf("unarmed env stopped after %d events", count)
	}
}
