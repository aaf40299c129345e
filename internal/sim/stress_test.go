package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

// TestInterruptStormQuick hammers the engine with randomized interrupt
// patterns against workers running wait ladders, then checks the global
// invariants: every worker terminates, observed time never regresses,
// every interrupt reason is either delivered or provably swallowed by
// coalescing, and the environment ends with zero live processes.
func TestInterruptStormQuick(t *testing.T) {
	f := func(seedBytes []byte) bool {
		env := NewEnv()
		const workers = 6
		delivered := make([]int, workers)
		finished := 0
		var procs []*Proc
		for w := 0; w < workers; w++ {
			w := w
			procs = append(procs, env.Spawn(fmt.Sprintf("w%d", w), func(p *Proc) {
				last := env.Now()
				for i := 0; i < 40; i++ {
					if err := p.Wait(1.5); err != nil {
						delivered[w]++
					}
					if env.Now() < last {
						t.Errorf("time regressed for worker %d", w)
					}
					last = env.Now()
				}
				finished++
			}))
		}
		// The storm: each byte schedules one interrupt at a derived time
		// against a derived worker.
		for i, b := range seedBytes {
			if i > 120 {
				break
			}
			target := procs[int(b)%workers]
			at := float64(int(b)/7%60) + float64(i)*0.01
			env.At(at, func() {
				if target.Alive() {
					target.Interrupt("storm")
				}
			})
		}
		env.RunAll()
		if finished != workers {
			return false
		}
		if env.ProcCount() != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestResourceUnderChurnConservesUnits randomly acquires/releases with
// interrupts and verifies unit conservation at every step.
func TestResourceUnderChurnConservesUnits(t *testing.T) {
	env := NewEnv()
	const capacity = 3
	r := NewResource(env, capacity)
	var procs []*Proc
	for i := 0; i < 8; i++ {
		i := i
		procs = append(procs, env.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			for k := 0; k < 20; k++ {
				if err := r.Acquire(p, float64((i*7+k)%5)); err != nil {
					continue // withdrawn; try next round
				}
				if r.InUse() > capacity {
					t.Errorf("capacity exceeded: %d", r.InUse())
				}
				p.Wait(float64(k%3) + 0.5)
				r.Release()
				p.Wait(0.3)
			}
		}))
	}
	env.Spawn("chaos", func(p *Proc) {
		for k := 0; k < 80; k++ {
			p.Wait(0.9)
			target := procs[k%len(procs)]
			if target.Alive() {
				target.Interrupt("churn")
			}
		}
	})
	env.RunAll()
	if r.InUse() != 0 || r.Queued() != 0 {
		t.Fatalf("resource leaked: inUse=%d queued=%d", r.InUse(), r.Queued())
	}
}
