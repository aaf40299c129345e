package sim

import "fmt"

// Resource is a counting semaphore with FIFO (or priority) granting — the
// PFS-lane token of the node-level p-ckpt protocol. Acquire with a
// priority key; lower keys are served first, ties in request order.
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	waiters  waiterQueue
}

// waiterQueue is a small stable priority queue of grant events.
type waiterQueue struct {
	items []resWaiter
	seq   uint64
}

type resWaiter struct {
	key   float64
	seq   uint64
	grant *Event
}

func (q *waiterQueue) push(key float64, grant *Event) {
	q.seq++
	q.items = append(q.items, resWaiter{key: key, seq: q.seq, grant: grant})
}

func (q *waiterQueue) pop() *Event {
	best := 0
	for i := 1; i < len(q.items); i++ {
		if q.items[i].key < q.items[best].key ||
			(q.items[i].key == q.items[best].key && q.items[i].seq < q.items[best].seq) {
			best = i
		}
	}
	ev := q.items[best].grant
	q.items = append(q.items[:best], q.items[best+1:]...)
	return ev
}

func (q *waiterQueue) remove(grant *Event) bool {
	for i := range q.items {
		if q.items[i].grant == grant {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
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
func (r *Resource) Queued() int { return len(r.waiters.items) }

// Acquire blocks until a unit is granted. priority orders the wait queue
// (lower first — the p-ckpt lead-time rule). It returns the *Interrupt
// if interrupted while queued; the request is then withdrawn.
func (r *Resource) Acquire(p *Proc, priority float64) error {
	if r.inUse < r.capacity {
		r.inUse++
		return nil
	}
	grant := NewEvent(r.env)
	r.waiters.push(priority, grant)
	if err := p.WaitEvent(grant); err != nil {
		if !r.waiters.remove(grant) && grant.Triggered() {
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
	if len(r.waiters.items) > 0 {
		// Hand the unit directly to the next waiter; inUse stays put.
		r.waiters.pop().Trigger()
		return
	}
	r.inUse--
}
