package sim

// Event is a broadcast condition, the synchronization primitive behind the
// p-ckpt protocol notifications (the p-ckpt request and the pfs-commit
// broadcast of Sec. VI). Processes block on it with Proc.WaitEvent; a
// single Trigger wakes every waiter. Once triggered, later WaitEvent calls
// return immediately until Reset.
type Event struct {
	env       *Env
	triggered bool
	waiters   []*Proc
}

// NewEvent returns an untriggered event bound to env.
func NewEvent(env *Env) *Event {
	return &Event{env: env}
}

// Triggered reports whether the event has fired and not been Reset.
func (e *Event) Triggered() bool { return e.triggered }

// Waiters returns the number of processes currently blocked on the event.
func (e *Event) Waiters() int { return len(e.waiters) }

// wakeAll schedules a resume for every waiter at the current time and
// empties the waiter list, keeping its capacity for the next round.
func (e *Event) wakeAll() {
	for i, p := range e.waiters {
		// Hand the wake over to the process so a racing Interrupt at the
		// same timestamp can cancel it and take precedence.
		p.pendingWake = e.env.eng.After(0, p.name, p.wakeFn)
		p.waitingOn = nil
		e.waiters[i] = nil
	}
	e.waiters = e.waiters[:0]
}

// Trigger fires the event: every waiting process is scheduled to resume at
// the current simulation time, and the event latches so subsequent waits
// return immediately. Triggering an already-triggered event is a no-op.
func (e *Event) Trigger() {
	if e.triggered {
		return
	}
	e.triggered = true
	e.wakeAll()
}

// Pulse wakes every process currently waiting without latching: the event
// stays untriggered, so it can be waited on and pulsed again with no Reset
// and no reallocation. It is the primitive for long-lived request/response
// handshakes (post-a-command, phase-drained) that under Trigger semantics
// would need a fresh Event per round. Pulsing a latched event is a no-op —
// a latched event already admits every waiter immediately.
func (e *Event) Pulse() {
	if e.triggered {
		return
	}
	e.wakeAll()
}

// Reset re-arms a triggered event so it can be waited on and triggered
// again. It panics if processes are still queued (they would be stranded).
func (e *Event) Reset() {
	if len(e.waiters) != 0 {
		panic("sim: Reset on event with waiters")
	}
	e.triggered = false
}

// removeWaiter drops p from the waiter list (used by Interrupt).
func (e *Event) removeWaiter(p *Proc) {
	for i, w := range e.waiters {
		if w == p {
			n := len(e.waiters) - 1
			copy(e.waiters[i:], e.waiters[i+1:])
			// Zero the vacated tail slot so the slice does not pin p.
			e.waiters[n] = nil
			e.waiters = e.waiters[:n]
			return
		}
	}
}
