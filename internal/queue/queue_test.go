package queue

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestPopOrdersByKey(t *testing.T) {
	var q PQ[string]
	q.Push(3, "c")
	q.Push(1, "a")
	q.Push(2, "b")
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if _, v := q.Pop(); v != w {
			t.Fatalf("pop %d = %q, want %q", i, v, w)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after draining: len=%d", q.Len())
	}
}

func TestEqualKeysPopInInsertionOrder(t *testing.T) {
	var q PQ[int]
	for i := 0; i < 50; i++ {
		q.Push(7, i)
	}
	for i := 0; i < 50; i++ {
		if _, v := q.Pop(); v != i {
			t.Fatalf("tie-break violated: pop %d returned %d", i, v)
		}
	}
}

func TestPeek(t *testing.T) {
	var q PQ[string]
	if _, _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue reported ok")
	}
	q.Push(5, "x")
	q.Push(2, "y")
	k, v, ok := q.Peek()
	if !ok || k != 2 || v != "y" {
		t.Fatalf("Peek = (%v, %q, %v), want (2, y, true)", k, v, ok)
	}
	if q.Len() != 2 {
		t.Fatal("Peek must not remove items")
	}
}

// TestReserveKeepsInsertionPlace: a number from Reserve is the one the
// next Push would have taken, so an item held outside the queue under it
// sorts between the items pushed before and after, and Head reports the
// (key, seq) such an item is compared against.
func TestReserveKeepsInsertionPlace(t *testing.T) {
	var q PQ[string]
	q.Push(7, "a")
	held := q.Reserve()
	q.Push(7, "c")
	for _, want := range []uint64{held - 1, held + 1} {
		if k, seq, ok := q.Head(); !ok || k != 7 || seq != want {
			t.Fatalf("Head = (%v, %d, %v), want (7, %d, true)", k, seq, ok, want)
		}
		q.Pop()
	}
	if _, _, ok := q.Head(); ok {
		t.Fatal("Head on an empty queue reported ok")
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty queue did not panic")
		}
	}()
	var q PQ[int]
	q.Pop()
}

func TestRemoveFunc(t *testing.T) {
	var q PQ[int]
	for i := 0; i < 10; i++ {
		q.Push(float64(i), i)
	}
	removed := q.RemoveFunc(func(v int) bool { return v%2 == 0 })
	if removed != 5 {
		t.Fatalf("removed %d items, want 5", removed)
	}
	var got []int
	for q.Len() > 0 {
		_, v := q.Pop()
		got = append(got, v)
	}
	want := []int{1, 3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRemoveFuncNoMatch(t *testing.T) {
	var q PQ[int]
	q.Push(1, 1)
	if n := q.RemoveFunc(func(int) bool { return false }); n != 0 {
		t.Fatalf("removed %d, want 0", n)
	}
	if q.Len() != 1 {
		t.Fatal("queue mutated by no-op RemoveFunc")
	}
}

func TestClear(t *testing.T) {
	var q PQ[int]
	q.Push(1, 1)
	q.Push(2, 2)
	q.Clear()
	if q.Len() != 0 {
		t.Fatal("Clear left items behind")
	}
	// Tie-break sequencing must survive Clear.
	q.Push(5, 10)
	q.Push(5, 11)
	if _, v := q.Pop(); v != 10 {
		t.Fatal("tie-break broken after Clear")
	}
}

// TestHeapPropertyQuick drains random inputs and checks global sortedness,
// which is equivalent to the heap invariant holding at every step.
func TestHeapPropertyQuick(t *testing.T) {
	f := func(keys []float64) bool {
		var q PQ[float64]
		cleaned := make([]float64, 0, len(keys))
		for _, k := range keys {
			if math.IsNaN(k) {
				continue
			}
			q.Push(k, k)
			cleaned = append(cleaned, k)
		}
		sort.Float64s(cleaned)
		for _, want := range cleaned {
			k, v := q.Pop()
			if k != want || v != want {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRemoveFuncPreservesHeapQuick removes a random subset and verifies
// the survivors still drain in sorted order.
func TestRemoveFuncPreservesHeapQuick(t *testing.T) {
	f := func(keys []float64, mask uint64) bool {
		var q PQ[int]
		var keep []float64
		for i, k := range keys {
			if math.IsNaN(k) {
				continue
			}
			q.Push(k, i)
			if mask>>(uint(i)%64)&1 == 0 {
				keep = append(keep, k)
			}
		}
		q.RemoveFunc(func(v int) bool { return mask>>(uint(v)%64)&1 == 1 })
		sort.Float64s(keep)
		if q.Len() != len(keep) {
			return false
		}
		for _, want := range keep {
			k, _ := q.Pop()
			if k != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	var q PQ[int]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(float64(i%1024), i)
		if q.Len() > 512 {
			q.Pop()
		}
	}
}
