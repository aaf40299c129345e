package crmodel

import (
	"strings"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/trace"
)

func TestTraceRecordsRunTimeline(t *testing.T) {
	var buf trace.Buffer
	cfg := Config{Model: policy.P2, Config: platform.Config{App: failApp, System: failure.Titan}, Trace: &buf}
	r := Simulate(cfg, 2)
	if len(buf.Events()) == 0 {
		t.Fatal("no trace events recorded")
	}
	counts := buf.Counts()
	if counts[trace.Complete] != 1 {
		t.Fatalf("Complete events = %d, want 1", counts[trace.Complete])
	}
	if counts[trace.BBWrite] != r.Checkpoints {
		t.Fatalf("BBWrite events %d != Checkpoints %d", counts[trace.BBWrite], r.Checkpoints)
	}
	if counts[trace.Failure] != r.Failures {
		t.Fatalf("Failure events %d != Failures %d", counts[trace.Failure], r.Failures)
	}
	if counts[trace.RecoveryDone] != r.Failures {
		t.Fatalf("RecoveryDone events %d != Failures %d", counts[trace.RecoveryDone], r.Failures)
	}
	if counts[trace.MigrationDone] != r.Migrations {
		t.Fatalf("MigrationDone events %d != Migrations %d", counts[trace.MigrationDone], r.Migrations)
	}
	// Timeline is time-ordered.
	events := buf.Events()
	for i := 1; i < len(events); i++ {
		if events[i].T < events[i-1].T {
			t.Fatalf("trace out of order at %d: %.2f after %.2f", i, events[i].T, events[i-1].T)
		}
	}
	// The last event is the completion.
	if events[len(events)-1].Kind != trace.Complete {
		t.Fatalf("last event is %v, want complete", events[len(events)-1].Kind)
	}
}

func TestTraceEpisodeBracketsCommits(t *testing.T) {
	var buf trace.Buffer
	cfg := Config{Model: policy.P1, Config: platform.Config{App: failApp, System: failure.Titan}, Trace: &buf}
	r := Simulate(cfg, 5)
	if r.ProactiveCkpts == 0 {
		t.Skip("seed produced no episodes")
	}
	starts := buf.Counts()[trace.EpisodeStart]
	if starts != r.ProactiveCkpts {
		t.Fatalf("EpisodeStart events %d != ProactiveCkpts %d", starts, r.ProactiveCkpts)
	}
	// Every vulnerable commit happens inside an episode.
	depth := 0
	for _, e := range buf.Events() {
		switch e.Kind {
		case trace.EpisodeStart:
			depth++
		case trace.EpisodeEnd:
			depth--
		case trace.VulnerableCommit:
			if depth <= 0 {
				t.Fatalf("vulnerable commit outside an episode at t=%.1f", e.T)
			}
		}
	}
}

func TestTraceRenderReadable(t *testing.T) {
	var buf trace.Buffer
	cfg := Config{Model: policy.P2, Config: platform.Config{App: failApp, System: failure.Titan}, Trace: &buf}
	Simulate(cfg, 2)
	out := buf.Render()
	for _, want := range []string{"cycle-start", "bb-write", "complete"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if g := buf.Gantt(60); !strings.Contains(g, "·") {
		t.Fatalf("gantt unexpectedly empty: %q", g)
	}
}

func TestNoTraceNoOverheadPath(t *testing.T) {
	// A nil recorder must not change results (tracing is observational).
	cfg := Config{Model: policy.P2, Config: platform.Config{App: failApp, System: failure.Titan}}
	plain := Simulate(cfg, 9)
	var buf trace.Buffer
	cfg.Trace = &buf
	traced := Simulate(cfg, 9)
	cfg.Trace = nil
	if plain != traced {
		t.Fatal("tracing changed simulation results")
	}
}
