package runcache

import (
	"math/rand"
	"testing"

	"pckpt/internal/stats"
)

// benchAgg is a 200-run aggregate shaped like a fig4 cell's.
func benchAgg() *stats.Agg {
	r := rand.New(rand.NewSource(1))
	a := &stats.Agg{}
	for i := 0; i < 200; i++ {
		a.Add(stats.RunResult{
			Overheads:   stats.Overheads{Checkpoint: r.Float64() * 1e5, Recompute: r.Float64() * 1e5, Recovery: r.Float64() * 1e4},
			WallSeconds: 1e6 + r.Float64()*1e6,
			Failures:    r.Intn(20), Predicted: r.Intn(20), Mitigated: r.Intn(10), Avoided: r.Intn(10),
			Checkpoints: r.Intn(2000), ProactiveCkpts: r.Intn(40), Migrations: r.Intn(10),
		})
	}
	return a
}

var sinkAgg *stats.Agg

// BenchmarkStoreGet times one warm lookup of a fig4-sized entry: read,
// key match, checksum and decode.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	k := testKey()
	if err := s.Put(k, benchAgg(), nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, _, ok := s.Get(k, false)
		if !ok {
			b.Fatal("miss")
		}
		sinkAgg = agg
	}
}

// BenchmarkStorePut times one write of a fig4-sized entry: encode,
// checksum, temp file and rename, index line.
func BenchmarkStorePut(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	k, agg := testKey(), benchAgg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(k, agg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
