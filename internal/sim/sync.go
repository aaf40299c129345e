package sim

import (
	"fmt"

	"pckpt/internal/queue"
)

// Resource is a counting semaphore with FIFO (or priority) granting — the
// lead-time grant of the p-ckpt protocol: nodesim's PFS lane and
// globalview's turns. Acquire with a priority key; lower keys are served
// first, ties in request order (queue.PQ's order).
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	waiters  queue.PQ[*Event] // grant events, keyed by priority
}

// NewResource creates a resource with the given concurrent capacity.
func NewResource(env *Env, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource with non-positive capacity")
	}
	return &Resource{env: env, capacity: capacity}
}

// InUse returns the number of held units. No model reads it:
// TestResourceAccounting and TestResourceUnderChurnConservesUnits check
// that units are never over-granted and all come back.
func (r *Resource) InUse() int { return r.inUse }

// Queued returns the number of blocked acquirers. No model reads it:
// TestResourceInterruptWithdraws and TestResourceUnderChurnConservesUnits
// check that a withdrawn or served acquirer leaves the queue.
func (r *Resource) Queued() int { return r.waiters.Len() }

// Acquire blocks until a unit is granted. priority orders the wait queue
// (lower first — the p-ckpt lead-time rule). It returns the *Interrupt
// if interrupted while queued; the request is then withdrawn.
func (r *Resource) Acquire(p *Proc, priority float64) error {
	if r.inUse < r.capacity {
		r.inUse++
		return nil
	}
	grant := NewEvent(r.env)
	r.waiters.Push(priority, grant)
	if err := p.WaitEvent(grant); err != nil {
		if r.waiters.RemoveFunc(func(e *Event) bool { return e == grant }) == 0 && grant.Triggered() {
			// The grant raced the interrupt: the unit was already
			// transferred to us, so return it.
			r.release()
		}
		return err
	}
	return nil
}

// Release returns a unit, granting the best-priority waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: Release on idle resource (in use %d)", r.inUse))
	}
	r.release()
}

func (r *Resource) release() {
	if r.waiters.Len() > 0 {
		// Hand the unit directly to the next waiter; inUse stays put.
		_, grant := r.waiters.Pop()
		grant.Trigger()
		return
	}
	r.inUse--
}
