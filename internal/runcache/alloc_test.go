package runcache

import (
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/platform"
	"pckpt/internal/workload"
)

// fig4Key is the key of one 200-run fig4 cell: CHIMERA's M2 at a 0.5
// lead scale.
func fig4Key(t testing.TB) Key {
	app, err := workload.ByName("CHIMERA")
	if err != nil {
		t.Fatal(err)
	}
	plat := platform.Config{App: app, System: failure.Titan, LeadScale: 0.5, FNRate: failure.DefaultFNRate}
	return Key{
		Experiment:  "fig4",
		Label:       "CHIMERA|OLCF Titan|M2|ls=0.500|fn=0.125",
		Policy:      "M2",
		Platform:    plat.CanonicalString(),
		Runs:        200,
		Seed:        42,
		Fingerprint: Fingerprint(),
	}
}

// TestStoreGetHitAllocs pins a warm lookup of a 200-run fig4 entry at 10
// allocations: the key text (1), its hash (2), the blob path (2), the
// open file (3), and the aggregate with its run slice (2). The entry is
// read into pooled scratch; before it was, a lookup made 13
// allocations, among them a fresh ~50 KB read buffer and its stat.
func TestStoreGetHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without -race (make allocs)")
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := fig4Key(t)
	if err := s.Put(k, benchAgg(), nil); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, _, ok := s.Get(k, false); !ok {
			t.Fatal("miss")
		}
	})
	if got != 10 {
		t.Fatalf("a warm Get allocated %v times, want 10", got)
	}
}

// TestStoreGetMissAllocs pins a lookup of an absent entry at 7
// allocations, as many as before Get pooled its read buffer: the key
// text, its hash and the blob path (5) and the failed open (2). A miss
// takes no scratch.
func TestStoreGetMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without -race (make allocs)")
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := fig4Key(t)
	got := testing.AllocsPerRun(50, func() {
		if _, _, ok := s.Get(k, false); ok {
			t.Fatal("hit")
		}
	})
	if got != 7 {
		t.Fatalf("a missing Get allocated %v times, want 7", got)
	}
}

// TestStorePutAllocs pins a warm Put of a 200-run fig4 entry at 23
// allocations. The entry renders into pooled scratch without any; they
// are the metadata of its write: the key's hash and blob path, the shard
// directory check, the temp file's creation, write and rename, and the
// index line.
func TestStorePutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without -race (make allocs)")
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k, agg := fig4Key(t), benchAgg()
	if err := s.Put(k, agg, nil); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if err := s.Put(k, agg, nil); err != nil {
			t.Fatal(err)
		}
	})
	if got != 23 {
		t.Fatalf("a warm Put allocated %v times, want 23", got)
	}
}
