// Package queue provides the priority-queue machinery shared by the
// discrete-event simulator (its event heap) and the p-ckpt protocol (the
// node-local lead-time priority queue of Sec. VI of the paper).
//
// Both queues need stable behaviour under equal keys: simultaneous
// simulation events must fire in schedule order for determinism, and two
// vulnerable nodes predicted to fail at the same instant must drain in
// arrival order. PQ therefore breaks ties by an internal monotonically
// increasing sequence number.
package queue

// PQ is a stable binary-heap priority queue. Items with smaller keys are
// popped first; equal keys pop in insertion order. The zero value is an
// empty, ready-to-use queue.
type PQ[T any] struct {
	items []pqItem[T]
	seq   uint64
}

type pqItem[T any] struct {
	key float64
	seq uint64
	val T
}

// Len returns the number of queued items.
func (q *PQ[T]) Len() int { return len(q.items) }

// Push inserts val with the given key.
func (q *PQ[T]) Push(key float64, val T) {
	q.items = append(q.items, pqItem[T]{key: key, seq: q.Reserve(), val: val})
	q.up(len(q.items) - 1)
}

// Reserve hands out the sequence number the next Push would use, without
// queueing anything: an item held outside the queue under it (an engine
// alarm) sorts in the (key, seq) order exactly where pushing it then
// would have put it, and no later Push takes the number.
func (q *PQ[T]) Reserve() uint64 {
	q.seq++
	return q.seq
}

// Pop removes and returns the item with the smallest key (ties broken by
// insertion order) along with its key. It panics on an empty queue.
func (q *PQ[T]) Pop() (key float64, val T) {
	if len(q.items) == 0 {
		panic("queue: Pop from empty PQ")
	}
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	// Zero the vacated tail slot: the backing array outlives the pop, and a
	// stale value there would pin the popped element for the GC (pointer
	// element types) for as long as the queue lives.
	q.items[last] = pqItem[T]{}
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return top.key, top.val
}

// Peek returns the smallest-key item without removing it. The boolean is
// false when the queue is empty.
func (q *PQ[T]) Peek() (key float64, val T, ok bool) {
	if len(q.items) == 0 {
		var zero T
		return 0, zero, false
	}
	return q.items[0].key, q.items[0].val, true
}

// Head returns the smallest item's key and sequence number: an item
// held under (k, s) pops before it exactly when k < key, or k == key and
// s < seq. The boolean is false when the queue is empty.
func (q *PQ[T]) Head() (key float64, seq uint64, ok bool) {
	if len(q.items) == 0 {
		return 0, 0, false
	}
	return q.items[0].key, q.items[0].seq, true
}

// Clear removes all items but keeps the backing storage for reuse. The
// vacated slots are zeroed so cleared values do not linger in the backing
// array. The sequence counter keeps counting: ties still break in push
// order, so a cleared queue pops exactly as a new one would. A recycled
// failure stream and a reused p-ckpt episode clear their queues this
// way; TestClearReleasesSlots pins the no-lingering-pointer contract, as
// TestRemoveFuncReleasesTail does for RemoveFunc.
func (q *PQ[T]) Clear() {
	for i := range q.items {
		q.items[i] = pqItem[T]{}
	}
	q.items = q.items[:0]
}

// RemoveFunc removes every queued item for which match returns true and
// returns how many were removed. The p-ckpt protocol uses it to retract a
// node's pending entry when its prediction is superseded. The operation
// re-establishes the heap invariant afterwards.
func (q *PQ[T]) RemoveFunc(match func(val T) bool) int {
	kept := q.items[:0]
	removed := 0
	for _, it := range q.items {
		if match(it.val) {
			removed++
		} else {
			kept = append(kept, it)
		}
	}
	// kept aliases the head of the same backing array; zero the tail it no
	// longer covers so removed values are not retained.
	for i := len(kept); i < len(q.items); i++ {
		q.items[i] = pqItem[T]{}
	}
	q.items = kept
	if removed > 0 {
		q.heapify()
	}
	return removed
}

func (q *PQ[T]) less(i, j int) bool {
	if q.items[i].key != q.items[j].key {
		return q.items[i].key < q.items[j].key
	}
	return q.items[i].seq < q.items[j].seq
}

func (q *PQ[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *PQ[T]) down(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}

func (q *PQ[T]) heapify() {
	for i := len(q.items)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}
