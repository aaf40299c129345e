package sim

import "fmt"

// Interrupt is the error delivered to a process whose blocking operation
// was cut short by Proc.Interrupt. Reason carries caller context (for the
// C/R models: the injected failure or the superseding prediction).
type Interrupt struct {
	Reason any
}

// Error implements the error interface.
func (i *Interrupt) Error() string {
	return fmt.Sprintf("sim: interrupted (%v)", i.Reason)
}

type procState uint8

const (
	stateCreated procState = iota
	stateRunning
	stateBlocked
	stateDone
)

// Proc is a simulation process. All of its methods except Interrupt,
// Alive, and Name must be called from the process's own goroutine (they
// block the caller in simulated time); Interrupt is called by whichever
// goroutine currently holds the execution token.
type Proc struct {
	env  *Env
	name string
	fn   func(p *Proc)
	// wakeFn is the bound wake method, made once at spawn: the engine
	// callback for the process's start, every wake and every interrupt
	// delivery.
	wakeFn func()
	// resume is borrowed from the carrier slot for the duration of the
	// run; it is assigned when the process starts.
	resume chan *Interrupt
	state  procState
	// pendingWake is the engine timer that will resume this process, when
	// it is blocked in Wait (or woken by a trigger and not yet resumed).
	// Interrupt cancels it.
	pendingWake Timer
	// interrupt is the delivery the next wake hands the process; nil for
	// a normal wake.
	interrupt *Interrupt
	// waitingOn is the event this process is queued on, when blocked in
	// WaitEvent. Interrupt removes the process from its waiter list.
	waitingOn *Event
	// interruptPending guards against double delivery: a second Interrupt
	// between the first one and the process actually resuming is dropped
	// (the first reason wins, matching SimPy's behaviour).
	interruptPending bool
	// done is the completion event, allocated lazily on the first Done
	// call — most processes (every per-node worker) are never joined.
	done *Event
}

// Name returns the diagnostic name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Alive reports whether the process has not yet finished.
func (p *Proc) Alive() bool { return p.state != stateDone }

// Done returns the completion event, triggered when the process function
// returns. Other processes can WaitEvent on it to join. The event is
// created on first use; asking a finished process returns it already
// triggered.
func (p *Proc) Done() *Event {
	if p.done == nil {
		p.done = NewEvent(p.env)
		if p.state == stateDone {
			p.done.triggered = true
		}
	}
	return p.done
}

// wake is the engine callback behind every process event. It hands the
// token to the process — starting it on a carrier slot the first time,
// resuming it with the pending interrupt (if any) afterwards — waits for
// the token back, and re-raises a process panic on the driver's stack,
// so it propagates out of Run like a callback's own panic.
func (p *Proc) wake() {
	e := p.env
	e.current = p
	if p.state == stateCreated {
		s := getSlot()
		p.resume = s.resume
		s.start <- p
	} else {
		iv := p.interrupt
		p.interrupt = nil
		p.resume <- iv
	}
	<-e.sched
	e.current = nil
	if e.failed {
		panic(e.failure)
	}
}

// run is the carrier-goroutine body: execute fn, then hand the token back.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			p.env.failed = true
			p.env.failure = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
		}
		p.state = stateDone
		p.env.nprocs--
		if !p.env.failed && p.done != nil {
			p.done.Trigger()
		}
		p.env.sched <- struct{}{}
	}()
	p.state = stateRunning
	p.fn(p)
}

// park hands the token to the engine's driver and blocks until resumed.
// It returns the interrupt that caused the resume, or nil for a normal
// wake. Clearing pendingWake before the process runs any further code is
// what makes the engine's event recycling safe: the timer's entry has
// just been dispatched, and no stale handle to it survives.
func (p *Proc) park() *Interrupt {
	p.state = stateBlocked
	p.env.sched <- struct{}{}
	iv := <-p.resume
	p.state = stateRunning
	p.interruptPending = false
	p.pendingWake = Timer{}
	p.waitingOn = nil
	return iv
}

// Wait blocks the process for d seconds of simulated time. It returns nil
// on normal expiry, or the *Interrupt if another process interrupted the
// wait (in which case less than d may have elapsed).
func (p *Proc) Wait(d float64) error {
	if d < 0 {
		panic(fmt.Sprintf("sim: Wait with negative duration %g", d))
	}
	if p.env.current != p {
		panic("sim: Wait called from outside the process goroutine")
	}
	p.pendingWake = p.env.eng.After(d, p.name, p.wakeFn)
	if iv := p.park(); iv != nil {
		return iv
	}
	return nil
}

// WaitEvent blocks until ev is triggered. If ev was already triggered it
// returns immediately. It returns the *Interrupt if interrupted first.
func (p *Proc) WaitEvent(ev *Event) error {
	if p.env.current != p {
		panic("sim: WaitEvent called from outside the process goroutine")
	}
	if ev.triggered {
		return nil
	}
	ev.waiters = append(ev.waiters, p)
	p.waitingOn = ev
	if iv := p.park(); iv != nil {
		return iv
	}
	return nil
}

// Join blocks until other has finished. Interruptible like WaitEvent.
func (p *Proc) Join(other *Proc) error {
	if !other.Alive() {
		return nil
	}
	return p.WaitEvent(other.Done())
}

// Interrupt delivers an interrupt to a blocked process: its current Wait
// or WaitEvent returns an *Interrupt carrying reason. Interrupting a
// finished process is a no-op and returns false. Interrupting a process
// that is not currently blocked (created-but-not-started, or the caller
// itself) panics, because the C/R models never need it and silently
// queueing interrupts would hide bugs.
func (p *Proc) Interrupt(reason any) bool {
	switch p.state {
	case stateDone:
		return false
	case stateBlocked:
		if p.interruptPending {
			return true
		}
		p.interruptPending = true
		p.interrupt = &Interrupt{Reason: reason}
		p.env.eng.Cancel(p.pendingWake)
		p.pendingWake = Timer{}
		if p.waitingOn != nil {
			p.waitingOn.removeWaiter(p)
			p.waitingOn = nil
		}
		p.env.eng.After(0, p.name, p.wakeFn)
		return true
	default:
		panic(fmt.Sprintf("sim: Interrupt on process %q in state %d", p.name, p.state))
	}
}
