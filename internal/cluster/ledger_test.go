package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// refCluster is the per-node array implementation the checkpoint ledger
// replaced: every coordinated call writes one record per node. It is the
// oracle the ledger must match bit for bit.
type refCluster struct {
	failed       []bool
	bb, pfs      []float64
	spares, used int
}

func newRef(n, spares int) *refCluster {
	r := &refCluster{failed: make([]bool, n), bb: make([]float64, n), pfs: make([]float64, n), spares: spares}
	for i := range r.bb {
		r.bb[i], r.pfs[i] = -1, -1
	}
	return r
}

func (r *refCluster) fail(id int) {
	r.failed[id] = true
	r.bb[id] = -1
}

func (r *refCluster) replace(id int) bool {
	if !r.failed[id] || r.spares-r.used <= 0 {
		return false
	}
	r.used++
	r.failed[id] = false
	r.bb[id] = -1
	return true
}

func (r *refCluster) recordAll(recs []float64, progress float64) {
	for i := range recs {
		if !r.failed[i] {
			recs[i] = progress
		}
	}
}

func (r *refCluster) clamp(progress float64) {
	for i := range r.bb {
		if r.bb[i] > progress {
			r.bb[i] = progress
		}
		if r.pfs[i] > progress {
			r.pfs[i] = progress
		}
	}
}

func (r *refCluster) recoverable(failedID int) float64 {
	min := r.pfs[failedID]
	for i := range r.bb {
		if i == failedID {
			continue
		}
		p := r.bb[i]
		if r.pfs[i] > p {
			p = r.pfs[i]
		}
		if p < min {
			min = p
		}
	}
	return min
}

// ledgerOps is the number of operation kinds a ledgerOp decodes to.
const ledgerOps = 12

// ledgerOp is one step of the random oracle sequence: a state transition
// or checkpoint record on node id, with progress p.
type ledgerOp struct {
	kind, id int
	p        float64
}

// decodeOp maps a random word to an operation on an n-node cluster.
// Progress values -1..14 cover "none", zero and ties.
func decodeOp(op uint16, n int) ledgerOp {
	return ledgerOp{
		kind: int(op) % ledgerOps,
		id:   int(op) / ledgerOps % n,
		p:    float64(int(op)/(ledgerOps*n)%16) - 1,
	}
}

// apply runs o on c and reports whether a Replace succeeded (false for
// every other kind).
func (o ledgerOp) apply(c *Cluster) bool {
	switch o.kind {
	case 0:
		_ = c.MarkVulnerable(o.id, o.p)
	case 1:
		_ = c.MarkMigrating(o.id)
	case 2:
		if c.Node(o.id).State != Failed {
			c.MarkHealthy(o.id)
		}
	case 3:
		_ = c.AbortMigration(o.id, o.p)
	case 4:
		c.Fail(o.id)
	case 5:
		return c.Replace(o.id) == nil
	case 6:
		c.RecordBBCheckpoint(o.id, o.p)
	case 7:
		c.RecordPFSCheckpoint(o.id, o.p)
	case 8, 9:
		c.RecordBBCheckpointAll(o.p)
	case 10:
		c.RecordPFSCheckpointAll(o.p)
	case 11:
		c.ClampCheckpoints(o.p)
	}
	return false
}

// applyRef runs o on the oracle, reporting a successful Replace like
// apply; the health-only kinds do not touch checkpoint records.
func (o ledgerOp) applyRef(r *refCluster) bool {
	switch o.kind {
	case 4:
		r.fail(o.id)
	case 5:
		return r.replace(o.id)
	case 6:
		r.bb[o.id] = o.p
	case 7:
		r.pfs[o.id] = o.p
	case 8, 9:
		r.recordAll(r.bb, o.p)
	case 10:
		r.recordAll(r.pfs, o.p)
	case 11:
		r.clamp(o.p)
	}
	return false
}

// TestLedgerMatchesReference drives random operation sequences through
// the ledger and the per-node oracle side by side on 1, 2 and 8 nodes,
// with a two-node spare pool so exhausted replacements leave failed
// nodes alive through later coordinated calls. After every step each
// node's BB and PFS record and RecoverableProgress for every id must be
// bit-identical.
func TestLedgerMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("nodes=%d", n), func(t *testing.T) {
			f := func(ops []uint16) bool {
				c, r := New(n, 2), newRef(n, 2)
				for step, word := range ops {
					op := decodeOp(word, n)
					if op.apply(c) != op.applyRef(r) {
						t.Errorf("step %d: Replace(%d) disagrees with the oracle", step, op.id)
						return false
					}
					if !sameAsRef(t, c, r, step) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestResetMatchesNew dirties a cluster — random operations, then
// fail/replace past spare exhaustion, an individual commit and an
// observer — and Resets it to a smaller and to a larger node count.
// Driven through the oracle sequence side by side with New(n, spares),
// it must match the fresh cluster's full state bit for bit after every
// step, and the removed observer must never fire.
func TestResetMatchesNew(t *testing.T) {
	for _, sz := range []struct{ from, to int }{{8, 2}, {8, 1}, {2, 8}, {1, 8}} {
		t.Run(fmt.Sprintf("%d->%d", sz.from, sz.to), func(t *testing.T) {
			f := func(dirty, ops []uint16) bool {
				c := New(sz.from, 1)
				notified := 0
				c.SetObserver(func(int, State, State) { notified++ })
				for _, word := range dirty {
					decodeOp(word, sz.from).apply(c)
				}
				c.Fail(0)
				_ = c.Replace(0)
				c.Fail(0)
				if c.Replace(0) == nil {
					t.Error("replace succeeded past spare exhaustion")
					return false
				}
				c.RecordPFSCheckpoint(sz.from-1, 7)
				notified = 0

				c.Reset(sz.to, 2)
				fresh, r := New(sz.to, 2), newRef(sz.to, 2)
				if !reflect.DeepEqual(c, fresh) {
					t.Errorf("after Reset: %+v, New: %+v", c, fresh)
					return false
				}
				for step, word := range ops {
					op := decodeOp(word, sz.to)
					got, want := op.apply(c), op.apply(fresh)
					if got != want || op.applyRef(r) != want {
						t.Errorf("step %d: Replace(%d) disagrees with New or the oracle", step, op.id)
						return false
					}
					if !reflect.DeepEqual(c, fresh) {
						t.Errorf("step %d (%+v): reset %+v, New %+v", step, op, c, fresh)
						return false
					}
					if !sameAsRef(t, c, r, step) {
						return false
					}
				}
				if notified != 0 {
					t.Errorf("the observer removed by Reset fired %d times", notified)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestResetZeroAlloc: resetting to a node count the cluster has held
// before allocates nothing.
func TestResetZeroAlloc(t *testing.T) {
	c := New(64, 0)
	c.Fail(3)
	c.RecordPFSCheckpoint(9, 1)
	allocs := testing.AllocsPerRun(100, func() {
		c.Reset(48, 2)
		c.Fail(5)
		c.RecordBBCheckpoint(7, 2)
	})
	if allocs != 0 {
		t.Fatalf("Reset allocated %.1f times, want 0", allocs)
	}
}

func sameAsRef(t *testing.T, c *Cluster, r *refCluster, step int) bool {
	t.Helper()
	for id := range r.bb {
		if (c.Node(id).State == Failed) != r.failed[id] {
			t.Errorf("step %d: node %d failed=%v, oracle %v", step, id, !r.failed[id], r.failed[id])
			return false
		}
		for _, v := range []struct {
			what      string
			got, want float64
		}{
			{"BBProgress", c.BBProgress(id), r.bb[id]},
			{"PFSProgress", c.PFSProgress(id), r.pfs[id]},
			{"RecoverableProgress", c.RecoverableProgress(id), r.recoverable(id)},
		} {
			if math.Float64bits(v.got) != math.Float64bits(v.want) {
				t.Errorf("step %d: %s(%d) = %g, oracle %g", step, v.what, id, v.got, v.want)
				return false
			}
		}
	}
	return true
}

// TestRecoverableProgressSharedNodes pins the coordinated generation's
// share of the minimum: it counts only when some node other than the
// failed one still holds it.
func TestRecoverableProgressSharedNodes(t *testing.T) {
	// One node: only its own PFS copy bounds recovery.
	c := New(1, 1)
	c.RecordPFSCheckpointAll(10)
	c.RecordBBCheckpointAll(20)
	if got := c.RecoverableProgress(0); got != 10 {
		t.Fatalf("n=1: RecoverableProgress = %g, want 10", got)
	}
	// Two nodes, both diverged: the coordinated generation (30) is held
	// by nobody and must not lower the minimum.
	c = New(2, 1)
	c.RecordPFSCheckpointAll(30)
	c.RecordPFSCheckpoint(0, 50)
	c.RecordBBCheckpoint(1, 40)
	c.RecordPFSCheckpoint(1, 45)
	if got := c.RecoverableProgress(0); got != 45 {
		t.Fatalf("n=2 all diverged: RecoverableProgress = %g, want 45", got)
	}
	// Two nodes, the survivor undiverged: its coordinated records count.
	c = New(2, 1)
	c.RecordPFSCheckpointAll(30)
	c.RecordPFSCheckpoint(0, 50)
	if got := c.RecoverableProgress(0); got != 30 {
		t.Fatalf("n=2 survivor coordinated: RecoverableProgress = %g, want 30", got)
	}
}

// TestRecordAllZeroAlloc pins that steady-state coordinated checkpoints
// allocate nothing while the ledger holds live entries: a failed node
// with no spare to replace it and an individual commit every round.
func TestRecordAllZeroAlloc(t *testing.T) {
	c := New(64, 0)
	c.Fail(5)
	k := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		k++
		c.RecordPFSCheckpoint(9, k)
		c.RecordBBCheckpointAll(k)
		c.RecordPFSCheckpointAll(k)
	})
	if allocs != 0 {
		t.Fatalf("coordinated checkpoints allocated %.1f times per round, want 0", allocs)
	}
	if c.BBProgress(5) != -1 || c.PFSProgress(5) != -1 || c.PFSProgress(9) != k || c.BBProgress(0) != k {
		t.Fatalf("records wrong: failed bb=%g pfs=%g, node 9 pfs=%g, node 0 bb=%g (k=%g)",
			c.BBProgress(5), c.PFSProgress(5), c.PFSProgress(9), c.BBProgress(0), k)
	}
}

// BenchmarkRecordCheckpointAll times one coordinated BB stage plus PFS
// commit, with a failed node and an individual commit in the ledger, on
// the 48-node bench platform, S3D (505 nodes) and CHIMERA (2272 nodes).
// The ledger makes ns/op independent of the node count.
func BenchmarkRecordCheckpointAll(b *testing.B) {
	for _, n := range []int{48, 505, 2272} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			c := New(n, 0)
			c.Fail(n / 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := float64(i)
				c.RecordPFSCheckpoint(1, p)
				c.RecordBBCheckpointAll(p)
				c.RecordPFSCheckpointAll(p)
			}
		})
	}
}

// TestResetAcrossRunsQuick recycles one cluster through random rounds,
// each a Reset to a random node count (smaller and larger than before)
// followed by random operations. Reset restores only the nodes the
// previous rounds changed, so after every Reset the table must equal a
// New cluster's node for node, and the round's operations must give
// what they give on New — a node changed in an earlier, larger round
// and then hidden by a smaller one must come back fresh.
func TestResetAcrossRunsQuick(t *testing.T) {
	f := func(rounds [][]uint16, sizes []uint8) bool {
		c := New(1, 0)
		for r, ops := range rounds {
			n, spares := 1, 2
			if len(sizes) > 0 {
				n = 1 + int(sizes[r%len(sizes)])%12
			}
			c.Reset(n, spares)
			fresh := New(n, spares)
			for i := 0; i < n; i++ {
				if c.Node(i) != fresh.Node(i) {
					t.Errorf("round %d: node %d after Reset(%d) is %+v, New has %+v", r, i, n, c.Node(i), fresh.Node(i))
					return false
				}
			}
			if !reflect.DeepEqual(c.nodes, fresh.nodes) || c.AtRisk() != 0 || c.SparesLeft() != spares {
				t.Errorf("round %d: Reset(%d) left %+v", r, n, c)
				return false
			}
			for step, word := range ops {
				op := decodeOp(word, n)
				if got, want := op.apply(c), op.apply(fresh); got != want || !reflect.DeepEqual(c.nodes, fresh.nodes) {
					t.Errorf("round %d step %d (%+v): recycled and New clusters diverged", r, step, op)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
