package deshlog

import (
	"reflect"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/rng"
	"pckpt/internal/scenario"
)

// The full loop: synthesize a log, mine its chains, export them as a
// scenario trace, render to JSON, parse back, and replay — the replayed
// trace must carry exactly the mined failures, and its lead-time mixture
// must match the one ToLeadModel fits from the same chains.
func TestExportTraceRoundTrip(t *testing.T) {
	cfg := GenConfig{Nodes: 32, Duration: 86400, Failures: 40, NoisePerChain: 5, PartialChains: 6}
	entries, _ := Generate(cfg, rng.New(11))
	chains := Mine(entries)
	if len(chains) == 0 {
		t.Fatal("no chains mined")
	}
	tr, err := ExportTrace("mined", chains, cfg.Nodes, cfg.Duration)
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr.Render()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := scenario.ParseTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := parsed.Validate(); err != nil {
		t.Fatal(err)
	}
	re := &parsed.Replay
	if re.Digest() != tr.Digest() {
		t.Fatal("JSON round trip changes the trace")
	}
	if got, want := re.FailureCount(), len(chains); got != want {
		t.Fatalf("replay carries %d failures, mined %d chains", got, want)
	}
	// The replay's fitted lead mixture must agree with the model mined
	// directly from the chains: same grouping, same moments.
	fromChains, err := ToLeadModel(chains)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(re.LeadModel().Sequences(), fromChains.Sequences()) {
		t.Fatalf("lead models diverge:\n%+v\nvs\n%+v", re.LeadModel().Sequences(), fromChains.Sequences())
	}
	// And the replay must actually stream: the first cycle's failures are
	// the mined chains in time order.
	src := failure.NewReplayStream(re, cfg.Nodes, nil)
	got, seen := 0, 0.0
	for got < len(chains) {
		ev := src.Next()
		if ev.Time < seen {
			t.Fatalf("stream out of order at %v", ev.Time)
		}
		seen = ev.Time
		if ev.Time > cfg.Duration {
			t.Fatalf("first cycle overran the horizon: only %d of %d failures seen", got, len(chains))
		}
		if ev.Kind == failure.KindFailure {
			got++
		}
	}
}

func TestExportTraceRejects(t *testing.T) {
	chains := []Chain{{SeqID: 1, Node: 2, Start: 10, End: 50}}
	cases := map[string]func() (*scenario.Trace, error){
		"no-chains":    func() (*scenario.Trace, error) { return ExportTrace("t", nil, 4, 100) },
		"bad-nodes":    func() (*scenario.Trace, error) { return ExportTrace("t", chains, 0, 100) },
		"bad-horizon":  func() (*scenario.Trace, error) { return ExportTrace("t", chains, 4, -1) },
		"node-beyond":  func() (*scenario.Trace, error) { return ExportTrace("t", chains, 2, 100) },
		"past-horizon": func() (*scenario.Trace, error) { return ExportTrace("t", chains, 4, 40) },
		"negative-lead": func() (*scenario.Trace, error) {
			return ExportTrace("t", []Chain{{SeqID: 1, Node: 0, Start: 60, End: 50}}, 4, 100)
		},
	}
	for name, fn := range cases {
		if _, err := fn(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
