package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Span groups. A traced run records the workload's own calls under
// groupReplay (the spans that mirror the untimed workload call, whose wall
// time is compared with the untraced run), bench-only work derived from
// the same inputs under groupExtra (same-seed comparisons, solo
// re-simulations, per-key cache reads), and a small fixed battery over
// every layer under groupProbe, which only reports a layer the workload
// itself never reaches.
const (
	groupReplay = "replay"
	groupExtra  = "extra"
	groupProbe  = "probe"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Group  string `json:"group"`
	App    string `json:"app,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Allocs is the heap allocation count over a phase span (set on pool
	// and serial phases, which run nothing else concurrently).
	Allocs uint64 `json:"allocs,omitempty"`
	// Count is the span's work in its own unit: runs for a phase,
	// checkpoints for a run, repricings for a machine run, node records
	// for a cluster probe, 1 for a cache hit.
	Count int64 `json:"count,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Safe for concurrent
// use by pool workers.
type tracer struct {
	trace string
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(trace string) *tracer { return &tracer{trace: trace, t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// root opens a top-level span in group g.
func (t *tracer) root(name, g string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Trace: t.trace, Name: name, Group: g, Start: t.now()})
	return len(t.spans)
}

// open starts a child span of parent; it inherits the parent's group.
func (t *tracer) open(parent int, name, app string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.spans[parent-1].Group
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: t.trace, Name: name, Group: g, App: app, Start: t.now()})
	return len(t.spans)
}

// finish ends span id, recording its allocation and work counts.
func (t *tracer) finish(id int, allocs uint64, count int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Allocs, s.Count = end, allocs, count
}

// leaf records a finished child span of parent in one step.
func (t *tracer) leaf(parent int, name, app string, start, end, count int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: t.trace,
		Name: name, Group: t.spans[parent-1].Group, App: app, Start: start, End: end, Count: count})
}

// timed runs fn as a leaf span of parent; fn returns the span's count.
func (t *tracer) timed(parent int, name, app string, fn func() int64) {
	start := t.now()
	n := fn()
	t.leaf(parent, name, app, start, t.now(), n)
}

// phase runs fn inside a child span of parent that records the heap
// allocations made meanwhile; fn returns the span's count.
func (t *tracer) phase(parent int, name, app string, fn func(id int) int64) {
	id := t.open(parent, name, app)
	m0 := mallocs()
	n := fn(id)
	t.finish(id, mallocs()-m0, n)
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Trace string `json:"trace"`
		Spans []span `json:"spans"`
	}{t.trace, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that the union of its children's intervals covers.
// Children of a pool run concurrently, so their intervals overlap and are
// merged before subtracting.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered measures how much of p's interval the union of cs covers.
func covered(p span, cs []span) int64 {
	iv := make([][2]int64, 0, len(cs))
	for _, c := range cs {
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// checkNesting verifies that every span ended, that every parent exists
// in the same trace, and that each child's interval lies inside its
// parent's.
func checkNesting(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			return fmt.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		case p.Trace != s.Trace:
			return fmt.Errorf("span %d (%s) is in trace %q, its parent in %q", s.ID, s.Name, s.Trace, p.Trace)
		case s.Start < p.Start || s.End > p.End:
			return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}
