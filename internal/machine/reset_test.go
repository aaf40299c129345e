package machine

import (
	"reflect"
	"testing"

	"pckpt/internal/sim"
	"pckpt/internal/stepsim"
)

// dirtyArbiter drives an arbiter into the middle of a degraded run and
// stops there: flows active, one suspended, a drain queued for a slot,
// starved flows escalated by the watchdog, a closed starvation stretch,
// and the clock advanced. Every flow is still live.
func dirtyArbiter(t *testing.T) *BandwidthArbiter {
	eng := sim.NewEngine()
	b := NewBandwidthArbiter(eng, 100, 2, 4)
	b.SetStarvationEscalation(5)
	b.SetAllocObserver(func(float64, float64, float64) {})
	done := func() { t.Fatal("a flow of the dirtied arbiter completed") }
	b.StartFlow(0, stepsim.ClassCollective, 1e6, 10, done)
	b.StartFlow(1, stepsim.ClassVulnerable, 1e6, 5, done)
	b.StartFlow(2, stepsim.ClassDrain, 1e6, 10, done)
	b.StartFlow(3, stepsim.ClassDrain, 1e6, 10, done)
	b.StartFlow(2, stepsim.ClassDrain, 1e6, 10, done) // no free slot: queues
	b.SuspendFlow(b.StartFlow(3, stepsim.ClassRecovery, 1e6, 10, done))
	b.SetCeiling(0)
	eng.After(20, "", func() { b.SetCeiling(1) }) // closes the stretches, keeps the escalations
	eng.Run(30)
	if b.numEscalated == 0 || len(b.drainQ) == 0 || b.lastT == 0 || b.MaxStarvationStretchSeconds(0) == 0 || len(b.live) != 6 {
		t.Fatalf("the arbiter is not dirty: %d escalated, %d queued, lastT %g, stretch %g, %d live",
			b.numEscalated, len(b.drainQ), b.lastT, b.MaxStarvationStretchSeconds(0), len(b.live))
	}
	return b
}

// A reset arbiter is the arbiter NewBandwidthArbiter returns. Reset
// mid-run onto a new engine, every field equals a new arbiter's except
// the engine, the completion alarm (bound to the new engine, unarmed)
// and the storage reset keeps (the free list and the scratch lists), and
// the reset arbiter then prices a workload exactly as the new one does.
func TestArbiterResetMatchesNew(t *testing.T) {
	got := dirtyArbiter(t)
	gotEng, wantEng := sim.NewEngine(), sim.NewEngine()
	got.reset(gotEng, 50, 3, 3)
	want := NewBandwidthArbiter(wantEng, 50, 3, 3)
	if len(got.free) != 6 {
		t.Fatalf("reset kept %d free flow records, want the 6 live ones", len(got.free))
	}
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		switch name {
		case "free", "scratch", "escScratch":
			continue // recycled storage
		case "eng":
			if got.eng != gotEng {
				t.Error("field eng: not the engine reset was given")
			}
			continue
		case "completion":
			if msg := alarmDiff(gv.Field(i), gotEng); msg != "" {
				t.Errorf("field completion: %s", msg)
			}
			continue
		}
		if msg := fieldDiff(gv.Field(i), wv.Field(i)); msg != "" {
			t.Errorf("field %s: %s", name, msg)
		}
	}

	// The same workload on both: identical completion times and
	// per-app accounting.
	trace := func(b *BandwidthArbiter, eng *sim.Engine) []float64 {
		var out []float64
		b.SetStarvationEscalation(4)
		for i, c := range []stepsim.WriteClass{stepsim.ClassDrain, stepsim.ClassDrain, stepsim.ClassDrain, stepsim.ClassVulnerable, stepsim.ClassCollective} {
			b.StartFlow(i%3, c, 300, 10, func() { out = append(out, eng.Now()) })
		}
		eng.After(1, "", func() { b.SetCeiling(0) })
		eng.After(9, "", func() { b.SetCeiling(50) })
		eng.RunAll()
		for app := 0; app < 3; app++ {
			out = append(out, b.StarvationSeconds(app), b.MaxStarvationStretchSeconds(app), float64(b.Escalations(app)))
		}
		return append(out, float64(b.QueuedDrains()))
	}
	if g, w := trace(got, gotEng), trace(want, wantEng); !reflect.DeepEqual(g, w) {
		t.Fatalf("reset arbiter priced %v, a new one %v", g, w)
	}
}

// alarmDiff checks a reset arbiter's completion alarm, whose fields are
// the engine's own: it must be bound to eng and unarmed.
func alarmDiff(a reflect.Value, eng *sim.Engine) string {
	if a.FieldByName("eng").Pointer() != reflect.ValueOf(eng).Pointer() {
		return "not bound to the engine reset was given"
	}
	if a.FieldByName("armed").Bool() {
		return "armed"
	}
	return ""
}

// fieldDiff compares one arbiter field of a reset and a new arbiter: an
// empty and a nil slice are equal, a slice of flows must be empty, and a
// func field must agree on being set.
func fieldDiff(g, w reflect.Value) string {
	switch g.Kind() {
	case reflect.Pointer:
		if g.Pointer() != w.Pointer() {
			return "points elsewhere"
		}
	case reflect.Func:
		if g.IsNil() != w.IsNil() {
			return "set on one side only"
		}
	case reflect.Bool:
		if g.Bool() != w.Bool() {
			return "differs"
		}
	case reflect.Int, reflect.Int64:
		if g.Int() != w.Int() {
			return "differs"
		}
	case reflect.Float64:
		if g.Float() != w.Float() {
			return "differs"
		}
	case reflect.Slice:
		if g.Len() != w.Len() {
			return "length differs"
		}
		for j := 0; j < g.Len(); j++ {
			if g.Index(j).Kind() == reflect.Pointer {
				return "holds flows"
			}
			if msg := fieldDiff(g.Index(j), w.Index(j)); msg != "" {
				return msg
			}
		}
	default:
		return "unhandled kind " + g.Kind().String()
	}
	return ""
}
