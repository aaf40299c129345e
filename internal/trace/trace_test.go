package trace

import (
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	if CycleStart.String() != "cycle-start" || Complete.String() != "complete" {
		t.Fatal("kind strings wrong")
	}
	if !strings.HasPrefix(Kind(200).String(), "Kind(") {
		t.Fatal("unknown kind must render numerically")
	}
}

func TestBufferRecordAndFilter(t *testing.T) {
	var b Buffer
	b.Record(Event{T: 1, Kind: CycleStart, Node: -1})
	b.Record(Event{T: 2, Kind: Failure, Node: 3, Detail: "unhandled loss=10s"})
	b.Record(Event{T: 3, Kind: Failure, Node: 5})
	b.Record(Event{T: 4, Kind: Complete, Node: -1})
	if len(b.Events()) != 4 {
		t.Fatalf("recorded %d events", len(b.Events()))
	}
	fails := b.Filter(Failure)
	if len(fails) != 2 || fails[0].Node != 3 {
		t.Fatalf("Filter(Failure) = %+v", fails)
	}
	if got := b.Counts()[Failure]; got != 2 {
		t.Fatalf("Counts[Failure] = %d", got)
	}
}

func TestEventString(t *testing.T) {
	e := Event{T: 12.5, Kind: Prediction, Node: 7, Progress: 100, Detail: "lead=40s"}
	s := e.String()
	for _, want := range []string{"prediction", "node 7", "lead=40s"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string missing %q: %s", want, s)
		}
	}
	if !strings.Contains((Event{Node: -1}).String(), "app") {
		t.Fatal("app-wide events must render as 'app'")
	}
}

func TestRenderAndSummary(t *testing.T) {
	var b Buffer
	b.Record(Event{T: 1, Kind: BBWrite, Node: -1})
	b.Record(Event{T: 2, Kind: BBWrite, Node: -1})
	if lines := strings.Count(b.Render(), "\n"); lines != 2 {
		t.Fatalf("render lines = %d", lines)
	}
	if !strings.Contains(b.Summary(), "bb-write") {
		t.Fatalf("summary missing kind:\n%s", b.Summary())
	}
}

func TestGantt(t *testing.T) {
	var b Buffer
	b.Record(Event{T: 10, Kind: BBWrite})
	b.Record(Event{T: 50, Kind: Failure})
	b.Record(Event{T: 55, Kind: RecoveryDone})
	b.Record(Event{T: 100, Kind: Complete})
	g := b.Gantt(20)
	if !strings.ContainsRune(g, 'X') || !strings.ContainsRune(g, 'c') || !strings.ContainsRune(g, 'r') {
		t.Fatalf("gantt missing marks: %s", g)
	}
	// Severity: a failure and a checkpoint in the same bucket show the failure.
	var c Buffer
	c.Record(Event{T: 10, Kind: BBWrite})
	c.Record(Event{T: 10, Kind: Failure})
	c.Record(Event{T: 10.1, Kind: Complete})
	if g := c.Gantt(1); len(g) == 0 || []rune(g)[0] != 'X' {
		t.Fatalf("severity ordering broken: %q", g)
	}
}

func TestGanttEmpty(t *testing.T) {
	var b Buffer
	if b.Gantt(10) != "" {
		t.Fatal("empty buffer must render nothing")
	}
	b.Record(Event{T: 0, Kind: Complete})
	if b.Gantt(0) != "" {
		t.Fatal("zero width must render nothing")
	}
}
