package sim

import (
	"fmt"
	"testing"
)

func TestResourceCapacity(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 2)
	var order []string
	hold := func(name string, dur float64) {
		env.Spawn(name, func(p *Proc) {
			if err := r.Acquire(p, 0); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			order = append(order, fmt.Sprintf("%s@%g", name, env.Now()))
			p.Wait(dur)
			r.Release()
		})
	}
	hold("a", 10)
	hold("b", 10)
	hold("c", 10) // must wait until t=10
	env.RunAll()
	want := []string{"a@0", "b@0", "c@10"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestResourcePriorityOrdering(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	var served []string
	env.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 0)
		p.Wait(10)
		r.Release()
	})
	// Three waiters queue with different priorities; lower keys first.
	for _, w := range []struct {
		name string
		prio float64
	}{{"low", 30}, {"high", 5}, {"mid", 20}} {
		w := w
		env.SpawnAt(1, w.name, func(p *Proc) {
			if err := r.Acquire(p, w.prio); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			served = append(served, w.name)
			p.Wait(1)
			r.Release()
		})
	}
	env.RunAll()
	want := []string{"high", "mid", "low"}
	if len(served) != 3 {
		t.Fatalf("served %v", served)
	}
	for i := range want {
		if served[i] != want[i] {
			t.Fatalf("served %v, want %v", served, want)
		}
	}
}

func TestResourceEqualPriorityFIFO(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	var served []int
	env.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 0)
		p.Wait(5)
		r.Release()
	})
	for i := 0; i < 4; i++ {
		i := i
		env.SpawnAt(float64(i)*0.1+1, fmt.Sprintf("w%d", i), func(p *Proc) {
			r.Acquire(p, 7)
			served = append(served, i)
			r.Release()
		})
	}
	env.RunAll()
	for i := range served {
		if served[i] != i {
			t.Fatalf("FIFO violated: %v", served)
		}
	}
}

func TestResourceInterruptWithdraws(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	env.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 0)
		p.Wait(10)
		r.Release()
	})
	var gotInterrupt bool
	victim := env.SpawnAt(1, "victim", func(p *Proc) {
		if err := r.Acquire(p, 0); err != nil {
			gotInterrupt = true
			return
		}
		r.Release()
	})
	acquired := false
	env.SpawnAt(2, "injector", func(p *Proc) {
		victim.Interrupt("cancel")
		p.Wait(0) // let the interrupt deliver and the victim withdraw
		if r.Queued() != 0 {
			t.Errorf("withdrawn request still queued: %d", r.Queued())
		}
		// The unit must still flow to a later acquirer.
		if err := r.Acquire(p, 0); err != nil {
			t.Errorf("late acquire: %v", err)
		}
		acquired = true
		r.Release()
	})
	env.RunAll()
	if !gotInterrupt || !acquired {
		t.Fatalf("interrupt=%v acquired=%v", gotInterrupt, acquired)
	}
}

func TestResourceReleasePanicsWhenIdle(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.Release()
}

func TestResourceAccounting(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 3)
	env.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			if err := r.Acquire(p, 0); err != nil {
				t.Errorf("acquire %d: %v", i, err)
			}
		}
		if r.InUse() != 3 {
			t.Errorf("InUse = %d, want 3", r.InUse())
		}
		r.Release()
		if r.InUse() != 2 {
			t.Errorf("InUse = %d, want 2", r.InUse())
		}
		r.Release()
		r.Release()
	})
	env.RunAll()
	if r.InUse() != 0 {
		t.Fatalf("InUse = %d after drain", r.InUse())
	}
}
