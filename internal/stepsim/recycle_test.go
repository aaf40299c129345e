package stepsim_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"pckpt/internal/failure"
	"pckpt/internal/machine"
	"pckpt/internal/metrics"
	"pckpt/internal/platform"
	"pckpt/internal/sim"
	"pckpt/internal/stats"
	"pckpt/internal/stepsim"
	"pckpt/internal/trace"
	"pckpt/internal/workload"
)

// tape records a run's timeline; with panicAt > 0 it panics on that
// event instead, killing the run mid-flight.
type tape struct {
	events  []trace.Event
	panicAt int
}

func (r *tape) Record(e trace.Event) {
	r.events = append(r.events, e)
	if len(r.events) == r.panicAt {
		panic("planted trace panic")
	}
}

// recycleCell is one prepared cell of the recycling property, with a
// traced twin whose runs record onto tape.
type recycleCell struct {
	name         string
	plat         platform.Config
	cell, traced *stepsim.Cell
	tape         *tape
}

// recycleCells prepares every model on platforms that reach every path
// a record holds state for: faults on and off, parametric and replayed
// failures, a lead scale other than 1, a spare pool small enough to
// truncate, and nested recoveries.
func recycleCells(t *testing.T) []recycleCell {
	plats := testPlatforms()
	plats["nested"] = stepsim.NestedPlatform()
	plats["spare-limited"] = platform.Config{
		App:        workload.App{Name: "spares-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24},
		System:     failure.System{Name: "hostile", Shape: 0.75, ScaleHours: 2, Nodes: 48},
		SpareNodes: 3,
	}
	// The replay's two failures at t=4000 s arrive together: with one
	// spare the first truncates the run and the second is left pending.
	scarce := plats["replay"]
	scarce.SpareNodes = 1
	plats["replay-spare-limited"] = scarce
	var cells []recycleCell
	for _, name := range []string{"clean", "degraded", "stretched-leads", "replay", "nested", "spare-limited", "replay-spare-limited"} {
		for _, id := range stepModels {
			cfg := stepsim.Config{Model: id, Config: plats[name]}
			c, err := stepsim.Prepare(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tp := &tape{}
			cfg.Trace = tp
			tc, err := stepsim.Prepare(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, recycleCell{name: fmt.Sprintf("%s/%v", name, id), plat: plats[name], cell: c, traced: tc, tape: tp})
		}
	}
	return cells
}

// TestRecycledRecordMatchesFreshQuick draws random sequences of (cell,
// seed, kind of run) and runs them on one goroutine through the pooled,
// recycled run records. Every plain, metered and traced run must match
// the same run on a record of its own that never ran before: the same
// RunResult, the same Dispatched count, the same metrics snapshot and
// the same timeline, and CheckRun's invariants. Between them the
// sequences plant runs that leave a record dirty: a run whose trace
// recorder panics mid-flight (its record must be dropped) and a machine
// tenant aborted mid-flight on a shared engine and released once the
// engine drained (its record goes back with waits, flows and the
// safeguard or episode it was in the middle of).
func TestRecycledRecordMatchesFreshQuick(t *testing.T) {
	cells := recycleCells(t)
	var recycled, compared, truncated, panicked, aborted int
	check := func(c recycleCell, seed uint64, kind string, got, want stats.RunResult, gotN, wantN uint64) bool {
		compared++
		if got != want || gotN != wantN {
			t.Errorf("%s seed %d (%s): recycled record ran %+v in %d dispatches, fresh %+v in %d",
				c.name, seed, kind, got, gotN, want, wantN)
			return false
		}
		if err := stepsim.CheckRun(c.plat, got); err != nil {
			t.Errorf("%s seed %d (%s): %v", c.name, seed, kind, err)
			return false
		}
		if got.Truncated {
			truncated++
		}
		return true
	}
	f := func(ops []uint32) bool {
		for _, op := range ops {
			c := cells[int(op%uint32(len(cells)))]
			seed := uint64(1 + (op>>8)%12)
			switch kind := (op >> 16) % 5; kind {
			case 0: // plain
				got, gotN, re := stepsim.RunPooled(c.cell, seed, nil)
				want, wantN := stepsim.RunFresh(c.cell, seed, nil)
				if re {
					recycled++
				}
				if !check(c, seed, "plain", got, want, gotN, wantN) {
					return false
				}
			case 1: // metered
				gotReg, wantReg := metrics.New(), metrics.New()
				got, gotN, re := stepsim.RunPooled(c.cell, seed, gotReg)
				want, wantN := stepsim.RunFresh(c.cell, seed, wantReg)
				if re {
					recycled++
				}
				if !check(c, seed, "metered", got, want, gotN, wantN) {
					return false
				}
				if d := gotReg.Snapshot(got.WallSeconds).Diff(wantReg.Snapshot(want.WallSeconds)); d != "" {
					t.Errorf("%s seed %d: recycled metered run's snapshot differs: %s", c.name, seed, d)
					return false
				}
			case 2: // traced
				c.tape.events, c.tape.panicAt = nil, 0
				got, gotN, re := stepsim.RunPooled(c.traced, seed, nil)
				gotEvents := c.tape.events
				c.tape.events = nil
				want, wantN := stepsim.RunFresh(c.traced, seed, nil)
				if re {
					recycled++
				}
				if !check(c, seed, "traced", got, want, gotN, wantN) {
					return false
				}
				if len(gotEvents) != len(c.tape.events) {
					t.Errorf("%s seed %d: recycled traced run recorded %d events, fresh %d", c.name, seed, len(gotEvents), len(c.tape.events))
					return false
				}
				for i := range gotEvents {
					if gotEvents[i] != c.tape.events[i] {
						t.Errorf("%s seed %d: trace event %d: recycled %+v, fresh %+v", c.name, seed, i, gotEvents[i], c.tape.events[i])
						return false
					}
				}
			case 3: // a run that panics mid-flight
				c.tape.events, c.tape.panicAt = nil, 3+int(op>>24)%40
				func() {
					defer func() {
						if recover() != nil {
							panicked++
						}
					}()
					stepsim.RunPooled(c.traced, seed, nil)
				}()
				c.tape.panicAt = 0
			case 4: // a machine tenant aborted mid-flight, then a run on its record
				eng := sim.NewEngine()
				arb := machine.NewBandwidthArbiter(eng, 2500, 4, 1)
				h := c.cell.Start(eng, seed, stepsim.AppOptions{Arbiter: arb})
				eng.After(abortPoint(c, seed, op>>24), "", func() {
					if !h.Done() {
						aborted++
					}
					h.Abort()
				})
				eng.RunAll()
				eng.Release()
				h.Release()
				got, gotN, re := stepsim.RunPooled(c.cell, seed, nil)
				want, wantN := stepsim.RunFresh(c.cell, seed, nil)
				if re {
					recycled++
				}
				if !check(c, seed, "after an abort", got, want, gotN, wantN) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d runs compared (%d on recycled records, %d truncated), %d panicked, %d tenants aborted",
		compared, recycled, truncated, panicked, aborted)
	if truncated == 0 || panicked == 0 || aborted == 0 {
		t.Fatalf("the sequences missed a case: %d truncated, %d panicked, %d aborted", truncated, panicked, aborted)
	}
	if !raceEnabled && recycled < compared/2 {
		t.Fatalf("only %d of %d runs drew a recycled record", recycled, compared)
	}
}

// abortPoint picks a time to abort a run of c mid-flight: halfway
// between two consecutive events of the run's solo timeline, after the
// pick-th event that opens a stateful stretch (a prediction, safeguard,
// episode, migration or failure) when the run has one.
func abortPoint(c recycleCell, seed uint64, pick uint32) float64 {
	c.tape.events, c.tape.panicAt = nil, 0
	stepsim.RunFresh(c.traced, seed, nil)
	evs := c.tape.events
	c.tape.events = nil
	var opens []int
	for i, e := range evs[:max(len(evs)-1, 0)] {
		switch e.Kind {
		case trace.Prediction, trace.SafeguardStart, trace.EpisodeStart, trace.MigrationStart, trace.Failure:
			opens = append(opens, i)
		}
	}
	switch {
	case len(opens) > 0:
		i := opens[int(pick)%len(opens)]
		return (evs[i].T + evs[i+1].T) / 2
	case len(evs) > 1:
		i := int(pick) % (len(evs) - 1)
		return (evs[i].T + evs[i+1].T) / 2
	}
	return 1
}
