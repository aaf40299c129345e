// Package trace records the timeline of a C/R simulation run — cycle
// boundaries, checkpoints, drains, predictions, proactive actions,
// failures, recoveries — and renders it for humans. The simulator emits
// events through the Recorder interface; tracing is off (a nil recorder)
// unless requested, so the hot path pays nothing.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies timeline events.
type Kind uint8

const (
	// CycleStart: a compute interval begins (Detail: interval seconds).
	CycleStart Kind = iota
	// BBWrite: a periodic checkpoint was staged on the burst buffers.
	BBWrite
	// DrainDone: the asynchronous BB→PFS drain completed.
	DrainDone
	// Prediction: the predictor announced a failure (Node, Detail: lead).
	Prediction
	// SpuriousPrediction: a false positive arrived.
	SpuriousPrediction
	// MigrationStart / MigrationDone / MigrationAborted: LM lifecycle.
	MigrationStart
	// MigrationDone marks successful completion (failure avoided).
	MigrationDone
	// MigrationAborted marks an LM superseded by p-ckpt.
	MigrationAborted
	// EpisodeStart / EpisodeEnd: a p-ckpt episode's bounds.
	EpisodeStart
	// EpisodeEnd carries the blocked duration in Detail.
	EpisodeEnd
	// SafeguardStart / SafeguardEnd: an M1 safeguard checkpoint's bounds.
	SafeguardStart
	// SafeguardEnd marks the synchronous PFS commit completing.
	SafeguardEnd
	// VulnerableCommit: one vulnerable node's prioritized PFS commit.
	VulnerableCommit
	// Failure: a failure struck (Detail: mitigated/unhandled + loss).
	Failure
	// RecoveryDone: the post-failure restore finished.
	RecoveryDone
	// Complete: the application finished.
	Complete
	// Truncated: the platform killed the job early (spare pool exhausted
	// when a failure struck).
	Truncated
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	names := [...]string{
		"cycle-start", "bb-write", "drain-done", "prediction", "spurious",
		"migration-start", "migration-done", "migration-aborted",
		"episode-start", "episode-end", "safeguard-start", "safeguard-end",
		"vulnerable-commit", "failure", "recovery-done", "complete",
		"truncated",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one timeline entry.
type Event struct {
	// T is the simulation time in seconds.
	T float64
	// Kind classifies the event.
	Kind Kind
	// Node is the affected node, or -1 for application-wide events.
	Node int
	// Progress is the application's completed computation at T.
	Progress float64
	// Detail is free-form context.
	Detail string
}

// String renders one line.
func (e Event) String() string {
	node := "app"
	if e.Node >= 0 {
		node = fmt.Sprintf("node %d", e.Node)
	}
	s := fmt.Sprintf("t=%12.2f  progress=%12.2f  %-18s %s", e.T, e.Progress, e.Kind, node)
	if e.Detail != "" {
		s += "  " + e.Detail
	}
	return s
}

// Recorder consumes events. Implementations must tolerate events arriving
// in simulation-time order with ties.
type Recorder interface {
	Record(Event)
}

// Buffer is an in-memory Recorder.
type Buffer struct {
	events []Event
}

// Record appends the event.
func (b *Buffer) Record(e Event) { b.events = append(b.events, e) }

// Events returns the recorded timeline. The tiers only record, and the
// renderers read through Filter and Render; the timeline tests
// (TestTraceTimelineParity, TestTraceRecordsRunTimeline) compare the
// recorded events of two runs one by one.
func (b *Buffer) Events() []Event { return b.events }

// Filter returns the events of the given kinds, in order.
func (b *Buffer) Filter(kinds ...Kind) []Event {
	want := map[Kind]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	var out []Event
	for _, e := range b.events {
		if want[e.Kind] {
			out = append(out, e)
		}
	}
	return out
}

// Counts returns the number of events per kind.
func (b *Buffer) Counts() map[Kind]int {
	out := map[Kind]int{}
	for _, e := range b.events {
		out[e.Kind]++
	}
	return out
}

// Render prints the full timeline, one event per line.
func (b *Buffer) Render() string {
	var sb strings.Builder
	for _, e := range b.events {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Summary renders event counts sorted by kind.
func (b *Buffer) Summary() string {
	counts := b.Counts()
	kinds := make([]Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	var sb strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&sb, "%-18s %6d\n", k, counts[k])
	}
	return sb.String()
}

// Gantt renders a coarse single-lane activity strip: the run's span is
// divided into width buckets and each bucket shows the most severe
// activity that touched it (failure > recovery > episode/safeguard >
// migration > checkpoint > compute).
func (b *Buffer) Gantt(width int) string {
	if len(b.events) == 0 || width <= 0 {
		return ""
	}
	end := b.events[len(b.events)-1].T
	if end <= 0 {
		return ""
	}
	cells := make([]rune, width)
	for i := range cells {
		cells[i] = '·'
	}
	mark := func(t float64, r rune, sev int) {
		i := int(t / end * float64(width))
		if i >= width {
			i = width - 1
		}
		if severity(cells[i]) < sev {
			cells[i] = r
		}
	}
	for _, e := range b.events {
		switch e.Kind {
		case BBWrite, DrainDone:
			mark(e.T, 'c', 1)
		case MigrationStart, MigrationDone:
			mark(e.T, 'm', 2)
		case EpisodeStart, EpisodeEnd, SafeguardStart, SafeguardEnd, VulnerableCommit:
			mark(e.T, 'P', 3)
		case RecoveryDone:
			mark(e.T, 'r', 4)
		case Failure:
			mark(e.T, 'X', 5)
		}
	}
	return string(cells) + "\n(X failure, r recovery, P p-ckpt/safeguard, m migration, c checkpoint, · compute)"
}

func severity(r rune) int {
	switch r {
	case 'X':
		return 5
	case 'r':
		return 4
	case 'P':
		return 3
	case 'm':
		return 2
	case 'c':
		return 1
	default:
		return 0
	}
}
