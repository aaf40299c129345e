package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// FuzzEngineAlarms is the oracle for alarms: a fuzzed program of engine
// calls runs twice, once with real alarms and once with every alarm
// emulated on the heap (heapAlarm), and the two runs must dispatch the
// same events — names, times and arguments, in order — end at the same
// clock with the same Dispatched() count, and trip the watchdog at the
// same event, time and name.
//
// A program is a byte string. Its first two bytes arm the watchdog; the
// rest are ops with their operands (see the op constants). The driver
// executes ops between dispatches, and each dispatched callback executes
// up to three more, so callbacks schedule, cancel, arm, disarm and
// unbind from inside the event loop too. A driver op met inside a
// callback ends its turn. Delays come from alarmDelays, where zeros and
// repeats make equal times common.
//
// The credit op holds Engine.Credit to the dispatches it stands for: the
// emulating run makes them, n events on the heap at the credited time,
// where the run with real alarms credits them, and makes them only when
// the engine refuses the credit, as a restarting step run falls back to
// its full path.
func FuzzEngineAlarms(f *testing.F) {
	for _, s := range alarmSeeds {
		f.Add(s.prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512] // bulk ops make every byte up to 96 events
		}
		got := runAlarmProgram(prog, false)
		want := runAlarmProgram(prog, true)
		got.cover, want.cover = alarmCover{}, alarmCover{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("alarms diverged from their heap emulation on %v\nalarms: %s\nheap:   %s", prog, got, want)
		}
	})
}

// alarmSeeds are the seed corpus, each named for the case it makes occur;
// TestEngineAlarmSeedsCoverEveryCase checks that each does.
var alarmSeeds = []struct {
	name string
	prog []byte
}{
	{"rearm an armed alarm", []byte{0, 0,
		opArm, 0, 1, opArm, 0, 2, opAfter, 1, opArm, 0, 1, opArm, 1, 1, opStep, opRun, 2, opPeek}},
	{"disarm an unarmed alarm", []byte{0, 0,
		opDisarm, 2, opArm, 2, 5, opDisarm, 2, opDisarm, 2, opAfter, 2, opStep}},
	{"zero delays and equal times", []byte{0, 0,
		opArm, 0, 0, opAfter, 0, opCallAt, 4, opArm, 1, 0, opArm, 2, 1, opAfter, 5, opCallAt, 1,
		opArm, 0, 0, opAfter, 0, opStep, opPeek}},
	{"compaction", []byte{0, 0,
		opBulk, 95, 6, opArm, 0, 7, opBulk, 95, 6, opAfter, 2, opCancelAll, opArm, 1, 2, opRun, 1,
		opBulk, 80, 1, opCancelAll, opArm, 2, 0}},
	{"run until stops", []byte{0, 0,
		opAfter, 6, opArm, 0, 7, opArm, 1, 1, opRun, 1, opPeek, opRun, 0, opArm, 1, 2, opRun, 3, opStep}},
	{"event watchdog", []byte{1, 0,
		opAfter, 0, opArm, 0, 0, opAfter, 1, opArm, 1, 0, opAfter, 0}},
	{"sim-time watchdog", []byte{0, 3,
		opArm, 2, 1, opAfter, 2, opArm, 2, 2, opArm, 0, 6, opAfter, 6, opArm, 1, 7}},
	{"unbind an armed alarm and bind it back", []byte{0, 0,
		opArm, 0, 1, opArm, 1, 2, opUnbind, 0, opAfter, 1, opStep, opArm, 0, 3, opUnbind, 2, opStep,
		opUnbind, 1, opArm, 1, 0, opStep, opStep}},
	{"credit and a refused credit", []byte{6, 0,
		opArm, 0, 7, opAfter, 6, opCredit, 2, 1, opCredit, 7, 2, opCredit, 7, 0}},
}

// The ops of an alarm program. Operands follow the op byte: a delay is
// an index into alarmDelays, an alarm an index mod 3.
const (
	opAfter     = iota // delay: After(delay)
	opCallAt           // delay: CallAt(now+delay), the op byte as argument
	opCancel           // index: Cancel one program timer, if not yet fired or cancelled
	opArm              // alarm, delay: Arm(now+delay), the op byte as argument
	opDisarm           // alarm: Disarm
	opBulk             // count, delay: After(delay) count%96+1 times
	opCancelAll        // Cancel every program timer not yet fired or cancelled
	opUnbind           // alarm: Disarm, then Unbind; the next Arm binds it back
	opStep             // driver: ProcessNextEvent
	opRun              // delay; driver: Run(now+delay)
	opPeek             // driver: PeekNextEventTime
	opCredit           // count, delay; driver: Credit(count%8+1, now+delay), or to now when an event falls before
	numOps
)

var alarmDelays = [...]float64{0, 1, 2, 0.5, 0, 1, 3, 10}

// alarmCover records which seeded cases a run exercised.
type alarmCover struct {
	rearm, disarmUnarmed, zeroDelay, equalTimes, compaction, runStop bool
	// unbindArmed: an armed alarm was unbound; rebind: an unbound alarm
	// was armed again.
	unbindArmed, rebind bool
	// credit: the engine took a credit; creditRefused: it refused one.
	credit, creditRefused bool
	// trip is the watchdog's Reason, if it tripped.
	trip string
}

// alarmStep is one dispatched callback, as the trace records it.
type alarmStep struct {
	Name    string
	At, Arg float64
}

// alarmOutcome is everything the two runs of a program must agree on.
type alarmOutcome struct {
	Trace      []alarmStep
	Now        float64
	Dispatched uint64
	Trip       *WatchdogError
	cover      alarmCover
}

func (o alarmOutcome) String() string {
	return fmt.Sprintf("%d steps, now %g, %d dispatched, trip %v; trace %v", len(o.Trace), o.Now, o.Dispatched, o.Trip, o.Trace)
}

// alarmHandle is one of a program's three alarms: real or emulated.
type alarmHandle interface {
	arm(at, arg float64)
	disarm()
	unbind()
}

// realAlarm is an alarm bound to the engine. Unbinding takes it out of
// the engine's scan; arming an unbound alarm binds it back first.
type realAlarm struct {
	a     Alarm
	e     *Engine
	name  string
	fn    func(float64)
	bound bool
}

func (r *realAlarm) bind() {
	r.e.Bind(&r.a, r.name, r.fn)
	r.bound = true
}

func (r *realAlarm) arm(at, arg float64) {
	if !r.bound {
		r.bind()
	}
	r.a.Arm(at, arg)
}

func (r *realAlarm) disarm() { r.a.Disarm() }

func (r *realAlarm) unbind() {
	r.a.Disarm()
	r.a.Unbind()
	r.bound = false
}

// heapAlarm emulates an alarm on the heap: arming cancels the pending
// event and queues the callback with CallAt, which takes the sequence
// number Arm would; disarming cancels it.
type heapAlarm struct {
	e    *Engine
	name string
	fn   func(float64)
	t    Timer
}

func (h *heapAlarm) arm(at, arg float64) {
	h.e.Cancel(h.t)
	h.t = h.e.CallAt(at, h.name, h.fire, arg)
}

// fire drops the handle before the callback runs: a fired event is
// recycled, so cancelling its Timer later would hit another event.
func (h *heapAlarm) fire(arg float64) {
	h.t = Timer{}
	h.fn(arg)
}

func (h *heapAlarm) disarm() {
	h.e.Cancel(h.t)
	h.t = Timer{}
}

// unbind is a disarm: an unbound alarm is one that cannot fire.
func (h *heapAlarm) unbind() { h.disarm() }

// alarmRun is one run of a program.
type alarmRun struct {
	e      *Engine
	prog   []byte
	pc     int
	alarms [3]alarmHandle
	armed  [3]bool
	// unbound marks the alarms unbound since they were last armed.
	unbound [3]bool
	// timers are the program's heap events; done marks those fired or
	// cancelled, which Cancel must not touch again.
	timers []Timer
	done   []bool
	trace  []alarmStep
	cover  alarmCover
}

// runAlarmProgram runs prog on a fresh engine, with real alarms or with
// their heap emulation.
func runAlarmProgram(prog []byte, emulate bool) (out alarmOutcome) {
	e := NewEngine()
	r := &alarmRun{e: e, prog: prog}
	for i := range r.alarms {
		i := i
		name := fmt.Sprintf("alarm%d", i)
		fn := func(arg float64) {
			r.armed[i] = false
			r.body(name, arg)
		}
		if emulate {
			r.alarms[i] = &heapAlarm{e: e, name: name, fn: fn}
			continue
		}
		ra := &realAlarm{e: e, name: name, fn: fn}
		ra.bind()
		r.alarms[i] = ra
	}
	e.SetWatchdog(uint64(r.byte())*2, float64(r.byte()%16))
	defer func() {
		if v := recover(); v != nil {
			w, ok := v.(*WatchdogError)
			if !ok {
				panic(v)
			}
			out.Trip = w
			r.cover.trip = w.Reason
		}
		for i := 1; i < len(r.trace); i++ {
			if r.trace[i].At == r.trace[i-1].At {
				r.cover.equalTimes = true
			}
		}
		out.Trace, out.Now, out.Dispatched, out.cover = r.trace, e.Now(), e.Dispatched(), r.cover
		e.Release() // a no-op while events are pending or an alarm is armed
	}()
	for r.pc < len(r.prog) {
		switch op := r.byte(); op % numOps {
		case opStep:
			if !e.ProcessNextEvent() {
				r.trace = append(r.trace, alarmStep{Name: "idle", At: e.Now()})
			}
		case opRun:
			until := e.Now() + r.delay()
			got := e.Run(until)
			if _, pending := e.PeekNextEventTime(); pending {
				r.cover.runStop = true
			}
			r.trace = append(r.trace, alarmStep{Name: "run", At: got, Arg: until})
		case opPeek:
			at, ok := e.PeekNextEventTime()
			if !ok {
				at = -1
			}
			r.trace = append(r.trace, alarmStep{Name: "peek", At: at})
		case opCredit:
			r.credit(emulate)
		default:
			r.exec(op)
		}
	}
	e.RunAll()
	return out
}

// byte reads the next program byte; past the end it reads zero.
func (r *alarmRun) byte() byte {
	if r.pc >= len(r.prog) {
		return 0
	}
	b := r.prog[r.pc]
	r.pc++
	return b
}

// delay reads a delay operand and notes a zero one.
func (r *alarmRun) delay() float64 {
	d := alarmDelays[int(r.byte())%len(alarmDelays)]
	if d == 0 {
		r.cover.zeroDelay = true
	}
	return d
}

// body is every callback: record the dispatch, then run up to three ops.
func (r *alarmRun) body(name string, arg float64) {
	r.trace = append(r.trace, alarmStep{Name: name, At: r.e.Now(), Arg: arg})
	for n := 0; n < 3 && r.pc < len(r.prog); n++ {
		op := r.byte()
		if op%numOps >= opStep {
			return
		}
		r.exec(op)
	}
}

// exec runs one non-driver op.
func (r *alarmRun) exec(op byte) {
	switch op % numOps {
	case opAfter:
		r.after(r.delay())
	case opCallAt:
		id := r.track()
		r.timers[id] = r.e.CallAt(r.e.Now()+r.delay(), "callat", func(arg float64) {
			r.done[id] = true
			r.body("callat", arg)
		}, float64(op))
	case opCancel:
		if len(r.timers) > 0 {
			r.cancel(int(r.byte()) % len(r.timers))
		}
	case opArm:
		i := r.byte() % 3
		if r.armed[i] {
			r.cover.rearm = true
		}
		if r.unbound[i] {
			r.cover.rebind = true
		}
		r.alarms[i].arm(r.e.Now()+r.delay(), float64(op))
		r.armed[i], r.unbound[i] = true, false
	case opDisarm:
		i := r.byte() % 3
		if !r.armed[i] {
			r.cover.disarmUnarmed = true
		}
		r.alarms[i].disarm()
		r.armed[i] = false
	case opBulk:
		n, d := int(r.byte())%96+1, r.delay()
		for k := 0; k < n; k++ {
			r.after(d)
		}
	case opCancelAll:
		for id := range r.timers {
			r.cancel(id)
		}
	case opUnbind:
		i := r.byte() % 3
		if r.armed[i] {
			r.cover.unbindArmed = true
		}
		r.alarms[i].unbind()
		r.armed[i], r.unbound[i] = false, true
	}
}

// credit credits n dispatches ending at now+delay, or at now when a
// pending event falls at or before that time; with an event due now it
// credits nothing. The emulating run makes the n dispatches on the heap,
// and so does the real run when the engine refuses the credit.
func (r *alarmRun) credit(emulate bool) {
	n, at := uint64(r.byte()%8)+1, r.e.Now()+r.delay()
	if next, ok := r.e.PeekNextEventTime(); ok && next <= at {
		if at = r.e.Now(); next <= at {
			return
		}
	}
	if emulate || !r.e.Credit(n, at) {
		if !emulate {
			r.cover.creditRefused = true
		}
		for k := uint64(0); k < n; k++ {
			r.e.CallAt(at, "credit", func(float64) {}, 0)
		}
		for k := uint64(0); k < n; k++ {
			if !r.e.ProcessNextEvent() {
				panic("sim: a credited dispatch found nothing pending")
			}
		}
	} else {
		r.cover.credit = true
	}
	r.trace = append(r.trace, alarmStep{Name: "credit", At: r.e.Now(), Arg: float64(n)})
}

// track reserves the id of the next program timer.
func (r *alarmRun) track() int {
	r.timers = append(r.timers, Timer{})
	r.done = append(r.done, false)
	return len(r.timers) - 1
}

// after schedules one program event with After.
func (r *alarmRun) after(d float64) {
	id := r.track()
	r.timers[id] = r.e.After(d, "after", func() {
		r.done[id] = true
		r.body("after", 0)
	})
}

// cancel retracts program timer id unless it fired or was cancelled, and
// notes a compaction: Cancel leaving no cancelled entry behind.
func (r *alarmRun) cancel(id int) {
	if r.done[id] {
		return
	}
	r.done[id] = true
	r.e.Cancel(r.timers[id])
	if r.e.ncancelled == 0 {
		r.cover.compaction = true
	}
}

// TestEngineAlarmSeedsCoverEveryCase: each seed of FuzzEngineAlarms makes
// the case it is named for occur with real alarms, so plain go test
// replays every case against the heap emulation.
func TestEngineAlarmSeedsCoverEveryCase(t *testing.T) {
	for _, s := range alarmSeeds {
		c := runAlarmProgram(s.prog, false).cover
		hit := map[string]bool{
			"rearm an armed alarm":                   c.rearm,
			"disarm an unarmed alarm":                c.disarmUnarmed,
			"zero delays and equal times":            c.zeroDelay && c.equalTimes,
			"compaction":                             c.compaction,
			"run until stops":                        c.runStop,
			"event watchdog":                         c.trip == "event limit",
			"sim-time watchdog":                      c.trip == "sim-time limit",
			"unbind an armed alarm and bind it back": c.unbindArmed && c.rebind,
			"credit and a refused credit":            c.credit && c.creditRefused,
		}[s.name]
		if !hit {
			t.Errorf("seed %q does not make its case occur (cover %+v)", s.name, c)
		}
	}
}

// TestAlarmUnbind: Unbind refuses an armed alarm, whose event it would
// lose, and changes nothing; an unarmed alarm leaves the scan, a second
// Unbind is a no-op, and Bind puts the alarm back to fire as before.
func TestAlarmUnbind(t *testing.T) {
	e := NewEngine()
	var fired []float64
	var a, b Alarm
	e.Bind(&a, "a", func(float64) { fired = append(fired, e.Now()) })
	e.Bind(&b, "b", func(float64) {})
	a.Arm(1, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Unbind of an armed alarm did not panic")
			}
		}()
		a.Unbind()
	}()
	e.RunAll()
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("the alarm fired at %v after the refused Unbind, want [1]", fired)
	}
	a.Unbind()
	a.Unbind()
	if len(e.alarms) != 1 || e.alarms[0] != &b {
		t.Fatalf("after Unbind the engine scans %d alarms, want only b", len(e.alarms))
	}
	e.Bind(&a, "a", func(float64) { fired = append(fired, e.Now()) })
	a.Arm(3, 0)
	e.RunAll()
	if len(fired) != 2 || fired[1] != 3 {
		t.Fatalf("the alarm bound back fired at %v, want [1 3]", fired)
	}
	e.Release()
}
