package pckpt

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"pckpt/internal/iomodel"
	"pckpt/internal/lm"
)

func testConfig(nodes int, perNodeGB float64, hybrid bool) Config {
	return Config{
		Nodes:     nodes,
		PerNodeGB: perNodeGB,
		IO:        iomodel.New(iomodel.DefaultSummit()),
		LM:        lm.Default(),
		Hybrid:    hybrid,
	}
}

func TestValidate(t *testing.T) {
	if err := testConfig(4, 10, true).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Nodes: 0, PerNodeGB: 1, IO: iomodel.New(iomodel.DefaultSummit())},
		{Nodes: 4, PerNodeGB: 0, IO: iomodel.New(iomodel.DefaultSummit())},
		{Nodes: 4, PerNodeGB: 1},
		{Nodes: 4, PerNodeGB: 1, IO: iomodel.New(iomodel.DefaultSummit()), Hybrid: true}, // zero LM config
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestEmptyEpisode(t *testing.T) {
	r := Run(testConfig(8, 10, false), nil)
	if r.PckptTriggered || len(r.Outcomes) != 0 {
		t.Fatalf("empty episode produced activity: %+v", r)
	}
}

func TestSingleVulnerableNode(t *testing.T) {
	cfg := testConfig(16, 10, false)
	write := cfg.IO.SingleNodePFSWriteTime(10)
	r := Run(cfg, []Prediction{{Node: 3, At: 0, Lead: write + 5}})
	if !r.PckptTriggered {
		t.Fatal("p-ckpt not triggered")
	}
	if len(r.Outcomes) != 1 {
		t.Fatalf("%d outcomes, want 1", len(r.Outcomes))
	}
	o := r.Outcomes[0]
	if o.Node != 3 || o.Action != ActionPckpt || !o.Mitigated {
		t.Fatalf("outcome wrong: %+v", o)
	}
	if math.Abs(o.DoneAt-write) > 1e-9 {
		t.Fatalf("commit at %.3f, want %.3f", o.DoneAt, write)
	}
	if math.Abs(r.Phase1End-write) > 1e-9 {
		t.Fatalf("phase 1 ended at %.3f, want %.3f", r.Phase1End, write)
	}
	wantPhase2 := write + cfg.IO.PFSWriteTime(15, 10)
	if math.Abs(r.Phase2End-wantPhase2) > 1e-9 {
		t.Fatalf("phase 2 ended at %.3f, want %.3f", r.Phase2End, wantPhase2)
	}
}

func TestShortLeadMissesDeadline(t *testing.T) {
	cfg := testConfig(16, 10, false)
	write := cfg.IO.SingleNodePFSWriteTime(10)
	r := Run(cfg, []Prediction{{Node: 0, At: 0, Lead: write / 2}})
	if r.Outcomes[0].Mitigated {
		t.Fatal("node with insufficient lead reported mitigated")
	}
	if r.Mitigated() != 0 {
		t.Fatal("Mitigated() wrong")
	}
}

func TestPriorityOrderByLead(t *testing.T) {
	cfg := testConfig(32, 10, false)
	// Three simultaneous predictions; lower lead must commit first.
	r := Run(cfg, []Prediction{
		{Node: 5, At: 0, Lead: 300},
		{Node: 9, At: 0, Lead: 100},
		{Node: 2, At: 0, Lead: 200},
	})
	want := []int{9, 2, 5}
	if len(r.CommitOrder) != 3 {
		t.Fatalf("commit order %v", r.CommitOrder)
	}
	for i := range want {
		if r.CommitOrder[i] != want[i] {
			t.Fatalf("commit order %v, want %v", r.CommitOrder, want)
		}
	}
}

func TestSerializedPhase1(t *testing.T) {
	cfg := testConfig(8, 20, false)
	write := cfg.IO.SingleNodePFSWriteTime(20)
	r := Run(cfg, []Prediction{
		{Node: 0, At: 0, Lead: 1000},
		{Node: 1, At: 0, Lead: 2000},
		{Node: 2, At: 0, Lead: 3000},
	})
	// Prioritized access is exclusive: phase 1 is the serial sum.
	if math.Abs(r.Phase1End-3*write) > 1e-9 {
		t.Fatalf("phase 1 end %.3f, want %.3f", r.Phase1End, 3*write)
	}
	// Commit times are staggered by one write each.
	for i, o := range r.Outcomes {
		if want := float64(i+1) * write; math.Abs(o.DoneAt-want) > 1e-9 {
			t.Fatalf("outcome %d at %.3f, want %.3f", i, o.DoneAt, want)
		}
	}
}

func TestLatePredictionJoinsPhase1(t *testing.T) {
	cfg := testConfig(8, 20, false)
	write := cfg.IO.SingleNodePFSWriteTime(20)
	// Node 1's prediction arrives while node 0 writes; it must still get
	// prioritized access before phase 2 begins.
	r := Run(cfg, []Prediction{
		{Node: 0, At: 0, Lead: 500},
		{Node: 1, At: write / 2, Lead: 500},
	})
	if len(r.CommitOrder) != 2 {
		t.Fatalf("commit order %v", r.CommitOrder)
	}
	if math.Abs(r.Phase1End-2*write) > 1e-9 {
		t.Fatalf("phase 1 end %.3f, want %.3f", r.Phase1End, 2*write)
	}
}

func TestHybridPrefersLM(t *testing.T) {
	cfg := testConfig(16, 10, true)
	theta := cfg.LM.Theta(10)
	r := Run(cfg, []Prediction{{Node: 4, At: 0, Lead: theta * 2}})
	if r.PckptTriggered {
		t.Fatal("LM-feasible prediction triggered p-ckpt")
	}
	o := r.Outcomes[0]
	if o.Action != ActionLM || !o.Mitigated {
		t.Fatalf("outcome %+v, want successful LM", o)
	}
	if math.Abs(o.DoneAt-theta) > 1e-9 {
		t.Fatalf("migration done at %.3f, want θ=%.3f", o.DoneAt, theta)
	}
}

func TestHybridShortLeadUsesPckpt(t *testing.T) {
	cfg := testConfig(16, 10, true)
	theta := cfg.LM.Theta(10)
	r := Run(cfg, []Prediction{{Node: 4, At: 0, Lead: theta * 0.9}})
	if !r.PckptTriggered {
		t.Fatal("short-lead prediction did not trigger p-ckpt")
	}
	if r.Outcomes[0].Action != ActionPckpt {
		t.Fatalf("action %v, want p-ckpt", r.Outcomes[0].Action)
	}
}

// TestLMAbortedByPckpt: a short-lead prediction forces the p-ckpt path
// and aborts every in-flight migration; the aborted nodes commit through
// the queue by deadline, after the node that triggered p-ckpt. Aborts
// are delivered in ascending node order, so aborted nodes whose
// deadlines tie are granted in node order, and repeated runs are
// identical down to the trace.
func TestLMAbortedByPckpt(t *testing.T) {
	cfg := testConfig(16, 10, true)
	theta := cfg.LM.Theta(10)
	for _, tc := range []struct {
		name    string
		preds   []Prediction
		aborted []int
		commits []int
	}{
		{
			// Node 0 starts migrating; node 1's short-lead prediction
			// arrives mid-migration and aborts node 0's LM. Node 1 has
			// the earlier deadline, so it writes first.
			name: "one-migration",
			preds: []Prediction{
				{Node: 0, At: 0, Lead: theta * 3},
				{Node: 1, At: theta / 2, Lead: theta * 0.5},
			},
			aborted: []int{0},
			commits: []int{1, 0},
		},
		{
			// Three migrations with equal deadlines are in flight when
			// node 1's short-lead prediction lands: the tie goes to
			// ascending node order, not prediction or map order.
			name: "tied-migrations",
			preds: []Prediction{
				{Node: 9, At: 0, Lead: theta * 3},
				{Node: 2, At: 0, Lead: theta * 3},
				{Node: 5, At: 0, Lead: theta * 3},
				{Node: 1, At: theta / 2, Lead: theta * 0.5},
			},
			aborted: []int{2, 5, 9},
			commits: []int{1, 2, 5, 9},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := Run(cfg, tc.preds)
			if !r.PckptTriggered {
				t.Fatal("p-ckpt not triggered")
			}
			byNode := map[int]Outcome{}
			for _, o := range r.Outcomes {
				byNode[o.Node] = o
			}
			for _, n := range tc.aborted {
				if byNode[n].Action != ActionLMAborted {
					t.Fatalf("node %d action %v, want lm-aborted", n, byNode[n].Action)
				}
			}
			if byNode[1].Action != ActionPckpt {
				t.Fatalf("node 1 action %v, want p-ckpt", byNode[1].Action)
			}
			if !reflect.DeepEqual(r.CommitOrder, tc.commits) {
				t.Fatalf("commit order %v, want %v", r.CommitOrder, tc.commits)
			}
			// The trace records the abort.
			joined := strings.Join(r.Trace, "\n")
			if !strings.Contains(joined, "ABORTED") {
				t.Fatalf("trace missing abort:\n%s", joined)
			}
			for i := 0; i < 50; i++ {
				again := Run(cfg, tc.preds)
				if !reflect.DeepEqual(again.Trace, r.Trace) ||
					!reflect.DeepEqual(again.CommitOrder, r.CommitOrder) ||
					!reflect.DeepEqual(again.Outcomes, r.Outcomes) {
					t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, strings.Join(again.Trace, "\n"), joined)
				}
			}
		})
	}
}

func TestLMCompletedBeforePckptNotAborted(t *testing.T) {
	cfg := testConfig(16, 10, true)
	theta := cfg.LM.Theta(10)
	// Node 0's migration finishes before node 1's p-ckpt request.
	r := Run(cfg, []Prediction{
		{Node: 0, At: 0, Lead: theta * 3},
		{Node: 1, At: theta + 1, Lead: 0.1},
	})
	byNode := map[int]Outcome{}
	for _, o := range r.Outcomes {
		byNode[o.Node] = o
	}
	if byNode[0].Action != ActionLM || !byNode[0].Mitigated {
		t.Fatalf("node 0 outcome %+v, want completed LM", byNode[0])
	}
}

func TestPckptActiveForcesQueueEvenWithLongLead(t *testing.T) {
	cfg := testConfig(16, 10, true)
	theta := cfg.LM.Theta(10)
	write := cfg.IO.SingleNodePFSWriteTime(10)
	// Node 0 triggers p-ckpt; node 1's prediction arrives during phase 1
	// with a long lead. Because p-ckpt is active, it queues rather than
	// migrating (the paper's state diagram: waiting state nodes move to
	// checkpointing, not to migration).
	r := Run(cfg, []Prediction{
		{Node: 0, At: 0, Lead: theta * 0.5},
		{Node: 1, At: write / 2, Lead: theta * 10},
	})
	byNode := map[int]Outcome{}
	for _, o := range r.Outcomes {
		byNode[o.Node] = o
	}
	if byNode[1].Action != ActionPckpt {
		t.Fatalf("node 1 action %v, want p-ckpt (p-ckpt active)", byNode[1].Action)
	}
}

func TestVulnerableAlwaysCommitBeforePhase2(t *testing.T) {
	cfg := testConfig(64, 5, false)
	preds := []Prediction{
		{Node: 1, At: 0, Lead: 50},
		{Node: 7, At: 0.2, Lead: 10},
		{Node: 13, At: 0.5, Lead: 400},
		{Node: 20, At: 1.0, Lead: 30},
	}
	r := Run(cfg, preds)
	for _, o := range r.Outcomes {
		if o.DoneAt > r.Phase1End+1e-9 {
			t.Fatalf("vulnerable node %d committed at %.2f after phase-1 end %.2f", o.Node, o.DoneAt, r.Phase1End)
		}
	}
	if r.Phase2End <= r.Phase1End {
		t.Fatal("phase 2 did not run after phase 1")
	}
}

// TestProtocolInvariantsQuick drives random episodes and checks the
// protocol's core invariants:
//  1. every prediction produces exactly one outcome;
//  2. the commit order respects deadline priority among nodes present in
//     the queue together (verified via the serialized grant sequence:
//     when node A is granted before node B and both were queued at A's
//     grant time, A's deadline ≤ B's deadline);
//  3. no vulnerable commit happens after phase-1 end;
//  4. the episode terminates (Run returns).
func TestProtocolInvariantsQuick(t *testing.T) {
	cfg := testConfig(32, 8, true)
	f := func(raw []uint16) bool {
		if len(raw) > 12 {
			raw = raw[:12]
		}
		var preds []Prediction
		for i, v := range raw {
			preds = append(preds, Prediction{
				Node: (i*7 + int(v)) % cfg.Nodes,
				At:   float64(v%97) / 10,
				Lead: float64(v%311) / 4,
			})
		}
		r := Run(cfg, preds)
		if len(r.Outcomes) != len(preds) {
			return false
		}
		if r.PckptTriggered {
			for _, o := range r.Outcomes {
				if o.Action != ActionLM && o.DoneAt > r.Phase1End+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestOutcomesSortedByCompletion(t *testing.T) {
	cfg := testConfig(16, 10, false)
	r := Run(cfg, []Prediction{
		{Node: 0, At: 0, Lead: 900},
		{Node: 1, At: 0, Lead: 100},
		{Node: 2, At: 0, Lead: 500},
	})
	if !sort.SliceIsSorted(r.Outcomes, func(i, j int) bool {
		return r.Outcomes[i].DoneAt < r.Outcomes[j].DoneAt
	}) {
		t.Fatalf("outcomes not completion-ordered: %+v", r.Outcomes)
	}
}

func TestActionString(t *testing.T) {
	if ActionPckpt.String() != "p-ckpt" || ActionLM.String() != "live-migration" || ActionLMAborted.String() != "lm-aborted→p-ckpt" {
		t.Fatal("action strings wrong")
	}
}

func TestRunPanicsOnBadPrediction(t *testing.T) {
	cfg := testConfig(4, 10, false)
	cases := [][]Prediction{
		{{Node: 4, At: 0, Lead: 1}},
		{{Node: -1, At: 0, Lead: 1}},
		{{Node: 0, At: -1, Lead: 1}},
		{{Node: 0, At: 0, Lead: -1}},
	}
	for i, preds := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			Run(cfg, preds)
		}()
	}
}

func TestTraceIsPopulated(t *testing.T) {
	cfg := testConfig(8, 10, false)
	r := Run(cfg, []Prediction{{Node: 2, At: 0, Lead: 60}})
	if len(r.Trace) < 4 {
		t.Fatalf("trace too short: %v", r.Trace)
	}
	joined := strings.Join(r.Trace, "\n")
	for _, want := range []string{"p-ckpt request broadcast", "arbiter grants PFS", "pfs-commit broadcast", "phase 2 complete"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q", want)
		}
	}
}
