package cluster

import (
	"testing"
	"testing/quick"
)

func TestNewInitialState(t *testing.T) {
	c := New(4, 2)
	if len(c.nodes) != 4 || c.SparesLeft() != 2 {
		t.Fatalf("nodes=%d spares=%d", len(c.nodes), c.SparesLeft())
	}
	for i := 0; i < 4; i++ {
		n := c.Node(i)
		if n.State != Healthy || c.BBProgress(i) >= 0 || c.PFSProgress(i) >= 0 {
			t.Fatalf("node %d not pristine: %+v bb=%g pfs=%g", i, n, c.BBProgress(i), c.PFSProgress(i))
		}
	}
}

func TestNewPanics(t *testing.T) {
	for i, fn := range []func(){func() { New(0, 1) }, func() { New(3, -1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestNodeOutOfRangePanics(t *testing.T) {
	c := New(3, 0)
	for name, fn := range map[string]func(){
		"Node":                func() { c.Node(3) },
		"BBProgress":          func() { c.BBProgress(-1) },
		"PFSProgress":         func() { c.PFSProgress(3) },
		"RecordBBCheckpoint":  func() { c.RecordBBCheckpoint(3, 1) },
		"RecordPFSCheckpoint": func() { c.RecordPFSCheckpoint(-1, 1) },
		"RecoverableProgress": func() { c.RecoverableProgress(3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestNodeIsSnapshot pins that Node hands out a copy: changing it must
// not reach the cluster, so no transition can bypass the observer.
func TestNodeIsSnapshot(t *testing.T) {
	c := New(2, 0)
	n := c.Node(1)
	n.State = Failed
	n.PredictedFailAt = 7
	if got := c.Node(1); got.State != Healthy || got.PredictedFailAt != 0 {
		t.Fatalf("snapshot write reached the cluster: %+v", got)
	}
}

func TestVulnerableLifecycle(t *testing.T) {
	c := New(5, 1)
	if err := c.MarkVulnerable(2, 100); err != nil {
		t.Fatal(err)
	}
	if got := c.AtRisk(); got != 1 {
		t.Fatalf("AtRisk() = %d, want 1", got)
	}
	if c.Node(2).PredictedFailAt != 100 {
		t.Fatal("predicted fail time not recorded")
	}
	// Re-marking with a newer prediction is allowed.
	if err := c.MarkVulnerable(2, 50); err != nil {
		t.Fatal(err)
	}
	c.MarkHealthy(2)
	if c.Node(2).State != Healthy || c.Node(2).PredictedFailAt != 0 {
		t.Fatal("MarkHealthy did not reset")
	}
}

func TestMigratingRequiresVulnerable(t *testing.T) {
	c := New(3, 0)
	if err := c.MarkMigrating(0); err == nil {
		t.Fatal("migrating a healthy node accepted")
	}
	c.MarkVulnerable(0, 10)
	if err := c.MarkMigrating(0); err != nil {
		t.Fatal(err)
	}
	if got := c.AtRisk(); got != 1 {
		t.Fatalf("migrating node not counted at risk: AtRisk() = %d", got)
	}
}

func TestFailAndReplace(t *testing.T) {
	c := New(3, 1)
	c.RecordBBCheckpointAll(50)
	c.RecordPFSCheckpointAll(40)
	c.Fail(1)
	if c.Node(1).State != Failed {
		t.Fatal("node not failed")
	}
	if c.BBProgress(1) >= 0 {
		t.Fatal("failed node kept its burst buffer")
	}
	if c.PFSProgress(1) != 40 {
		t.Fatal("PFS copy must survive a node failure")
	}
	if err := c.Replace(1); err != nil {
		t.Fatal(err)
	}
	if c.Node(1).State != Healthy || c.Node(1).Replacements != 1 {
		t.Fatalf("replacement wrong: %+v", c.Node(1))
	}
	if c.SparesLeft() != 0 {
		t.Fatalf("spares left %d, want 0", c.SparesLeft())
	}
}

func TestReplaceExhaustsSpares(t *testing.T) {
	c := New(2, 1)
	c.Fail(0)
	if err := c.Replace(0); err != nil {
		t.Fatal(err)
	}
	c.Fail(1)
	if err := c.Replace(1); err == nil {
		t.Fatal("replacement from empty pool accepted")
	}
}

func TestReplaceRequiresFailed(t *testing.T) {
	c := New(2, 1)
	if err := c.Replace(0); err == nil {
		t.Fatal("replacing a healthy node accepted")
	}
}

func TestMarkVulnerableOnFailed(t *testing.T) {
	c := New(2, 1)
	c.Fail(0)
	if err := c.MarkVulnerable(0, 10); err == nil {
		t.Fatal("marking a failed node vulnerable accepted")
	}
}

func TestMarkHealthyOnFailedPanics(t *testing.T) {
	c := New(2, 1)
	c.Fail(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.MarkHealthy(0)
}

func TestCountState(t *testing.T) {
	c := New(5, 2)
	c.MarkVulnerable(0, 1)
	c.MarkVulnerable(1, 2)
	c.Fail(4)
	if c.CountState(Healthy) != 2 || c.CountState(Vulnerable) != 2 || c.CountState(Failed) != 1 {
		t.Fatalf("counts wrong: H=%d V=%d F=%d", c.CountState(Healthy), c.CountState(Vulnerable), c.CountState(Failed))
	}
}

func TestRecoverableProgress(t *testing.T) {
	c := New(3, 1)
	// Coordinated checkpoint at progress 100 staged on BBs, earlier one
	// at 60 fully on PFS.
	c.RecordPFSCheckpointAll(60)
	c.RecordBBCheckpointAll(100)
	c.Fail(1)
	// Node 1 lost its BB; it recovers from PFS@60. Healthy nodes hold
	// BB@100 but must roll back to the consistent cut at 60.
	if got := c.RecoverableProgress(1); got != 60 {
		t.Fatalf("RecoverableProgress = %g, want 60", got)
	}
}

func TestRecoverableProgressAfterDrain(t *testing.T) {
	c := New(3, 1)
	c.RecordBBCheckpointAll(100)
	c.RecordPFSCheckpointAll(100) // drain completed
	c.Fail(2)
	if got := c.RecoverableProgress(2); got != 100 {
		t.Fatalf("RecoverableProgress = %g, want 100", got)
	}
}

func TestRecoverableProgressNoCheckpoint(t *testing.T) {
	c := New(2, 1)
	c.Fail(0)
	if got := c.RecoverableProgress(0); got >= 0 {
		t.Fatalf("RecoverableProgress = %g, want negative (restart)", got)
	}
}

// TestStateMachineQuick drives a random operation sequence and checks
// invariants after every operation: the O(1) AtRisk count equals the
// scanned vulnerable+migrating population, and spares never go negative.
func TestStateMachineQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		c := New(8, 100)
		for _, op := range ops {
			id := int(op) % 8
			switch (op / 8) % 5 {
			case 0:
				c.MarkVulnerable(id, float64(op))
			case 1:
				if c.Node(id).State == Vulnerable {
					c.MarkMigrating(id)
				}
			case 2:
				if c.Node(id).State != Failed {
					c.MarkHealthy(id)
				}
			case 3:
				c.Fail(id)
			case 4:
				if c.Node(id).State == Failed {
					c.Replace(id)
				}
			}
			if c.SparesLeft() < 0 || c.AtRisk() != c.CountState(Vulnerable)+c.CountState(Migrating) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSupersedeDuringMigration pins the supersede-during-migration
// contract: a newer prediction landing on a Migrating node refreshes the
// deadline but must NOT revert the node to Vulnerable — the in-flight
// migration still owns it. Tearing the migration down is a separate,
// explicit AbortMigration.
func TestSupersedeDuringMigration(t *testing.T) {
	c := New(3, 1)
	c.MarkVulnerable(1, 100)
	if err := c.MarkMigrating(1); err != nil {
		t.Fatal(err)
	}
	var fired []string
	c.SetObserver(func(id int, from, to State) {
		fired = append(fired, from.String()+"->"+to.String())
	})
	if err := c.MarkVulnerable(1, 80); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(1).State; got != Migrating {
		t.Fatalf("superseding prediction reverted state to %v, want migrating", got)
	}
	if got := c.Node(1).PredictedFailAt; got != 80 {
		t.Fatalf("PredictedFailAt = %g, want refreshed to 80", got)
	}
	if len(fired) != 0 {
		t.Fatalf("no-op re-mark notified the observer: %v", fired)
	}
	// The explicit abort realizes Migrating -> Vulnerable (and notifies).
	if err := c.AbortMigration(1, 75); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(1).State; got != Vulnerable {
		t.Fatalf("AbortMigration left state %v, want vulnerable", got)
	}
	if got := c.Node(1).PredictedFailAt; got != 75 {
		t.Fatalf("PredictedFailAt = %g, want 75", got)
	}
	if len(fired) != 1 || fired[0] != "migrating->vulnerable" {
		t.Fatalf("observer saw %v, want [migrating->vulnerable]", fired)
	}
}

func TestAbortMigrationRequiresMigrating(t *testing.T) {
	c := New(2, 1)
	if err := c.AbortMigration(0, 10); err == nil {
		t.Fatal("aborting a healthy node's migration accepted")
	}
	c.MarkVulnerable(0, 10)
	if err := c.AbortMigration(0, 10); err == nil {
		t.Fatal("aborting a vulnerable node's migration accepted")
	}
}

// TestObserverTable walks every legal transition path — including
// Replace, Fail, and the re-mark paths — and asserts the observer sees
// exactly the real transitions, with no notification for no-ops.
func TestObserverTable(t *testing.T) {
	type step struct {
		op   func(c *Cluster)
		want string // "" = no notification
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"predict-resolve", []step{
			{func(c *Cluster) { c.MarkVulnerable(0, 10) }, "healthy->vulnerable"},
			{func(c *Cluster) { c.MarkVulnerable(0, 8) }, ""}, // re-mark: no-op transition
			{func(c *Cluster) { c.MarkHealthy(0) }, "vulnerable->healthy"},
			{func(c *Cluster) { c.MarkHealthy(0) }, ""}, // already healthy
		}},
		{"migrate-complete", []step{
			{func(c *Cluster) { c.MarkVulnerable(0, 10) }, "healthy->vulnerable"},
			{func(c *Cluster) { c.MarkMigrating(0) }, "vulnerable->migrating"},
			{func(c *Cluster) { c.MarkVulnerable(0, 6) }, ""}, // supersede keeps migrating
			{func(c *Cluster) { c.MarkHealthy(0) }, "migrating->healthy"},
		}},
		{"migrate-abort", []step{
			{func(c *Cluster) { c.MarkVulnerable(0, 10) }, "healthy->vulnerable"},
			{func(c *Cluster) { c.MarkMigrating(0) }, "vulnerable->migrating"},
			{func(c *Cluster) { c.AbortMigration(0, 9) }, "migrating->vulnerable"},
		}},
		{"fail-replace", []step{
			{func(c *Cluster) { c.Fail(0) }, "healthy->failed"},
			{func(c *Cluster) { c.Fail(0) }, ""}, // double fail: no-op
			{func(c *Cluster) { c.Replace(0) }, "failed->healthy"},
		}},
		{"vulnerable-fail", []step{
			{func(c *Cluster) { c.MarkVulnerable(0, 10) }, "healthy->vulnerable"},
			{func(c *Cluster) { c.Fail(0) }, "vulnerable->failed"},
		}},
		{"migrating-fail", []step{
			{func(c *Cluster) { c.MarkVulnerable(0, 10) }, "healthy->vulnerable"},
			{func(c *Cluster) { c.MarkMigrating(0) }, "vulnerable->migrating"},
			{func(c *Cluster) { c.Fail(0) }, "migrating->failed"},
		}},
		{"failed-rejects-marks", []step{
			{func(c *Cluster) { c.Fail(0) }, "healthy->failed"},
			{func(c *Cluster) { c.MarkVulnerable(0, 10) }, ""}, // rejected, no notify
			{func(c *Cluster) { c.AbortMigration(0, 10) }, ""}, // rejected, no notify
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(2, 4)
			var got []string
			c.SetObserver(func(id int, from, to State) {
				if from == to {
					t.Errorf("observer notified of no-op %v->%v", from, to)
				}
				got = append(got, from.String()+"->"+to.String())
			})
			var want []string
			for _, s := range tc.steps {
				s.op(c)
				if s.want != "" {
					want = append(want, s.want)
				}
				if len(got) != len(want) || (len(want) > 0 && got[len(got)-1] != want[len(want)-1]) {
					t.Fatalf("after step: observer saw %v, want %v", got, want)
				}
			}
		})
	}
}

// TestAtRisk: the count covers Vulnerable and Migrating nodes, follows
// every transition out of them, and a Reset clears it.
func TestAtRisk(t *testing.T) {
	c := New(6, 1)
	c.MarkVulnerable(1, 10)
	c.MarkVulnerable(4, 20)
	c.MarkVulnerable(5, 30)
	c.MarkMigrating(4)
	c.MarkVulnerable(4, 15) // a superseding prediction on a migrating node
	if got := c.AtRisk(); got != 3 {
		t.Fatalf("AtRisk() = %d, want 3", got)
	}
	c.AbortMigration(4, 15)
	c.MarkHealthy(1)
	c.Fail(5)
	if got := c.AtRisk(); got != 1 {
		t.Fatalf("after heal and fail: AtRisk() = %d, want 1", got)
	}
	c.Reset(6, 1)
	if got := c.AtRisk(); got != 0 {
		t.Fatalf("after Reset: AtRisk() = %d, want 0", got)
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{Healthy: "healthy", Vulnerable: "vulnerable", Migrating: "migrating", Failed: "failed"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
