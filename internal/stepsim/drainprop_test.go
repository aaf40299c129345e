package stepsim_test

import (
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/lm"
	"pckpt/internal/pckpt"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/stepsim"
	"pckpt/internal/trace"
	"pckpt/internal/workload"
)

// This file property-tests the prioritized-queue drain invariant of the
// p-ckpt protocol (Sec. VI): phase-1 PFS grants go to the queued
// vulnerable node with the least lead time to failure (earliest
// deadline), late arrivals insert by deadline — not arrival — order,
// and an aborted migration re-enters the queue under the same rule. One
// shared generator feeds three executors: an abstract arbiter model (the
// invariant stated directly), the process-per-node implementation
// (internal/pckpt), and the step-engine episode port (the P1/P2 path in
// this package), so the two simulations are checked against the
// specification rather than only against each other.

// propPred is one generated prediction in episode-relative terms.
type propPred struct {
	node     int
	at       float64 // arrival of the prediction
	deadline float64 // predicted failure time (at + lead)
}

// lcg is a tiny deterministic generator so scenarios are reproducible
// without seeding any simulation RNG machinery.
type lcg uint64

func (l *lcg) float() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return float64(*l>>11) / (1 << 53)
}

// propPlatform is the crossval platform the bit-identity suite uses.
func propPlatform() platform.Config {
	return platform.Config{
		App:    workload.App{Name: "crossval-48", Nodes: 48, TotalCkptGB: 960, ComputeHours: 24},
		System: failure.System{Name: "busy", Shape: 0.75, ScaleHours: 40, Nodes: 48},
	}
}

// refCommitOrder is the invariant stated directly: an arbiter holding a
// deadline-ordered queue, granting one exclusive write of w seconds at
// a time, with arrivals joining the queue whenever they land.
func refCommitOrder(preds []propPred, w float64) []int {
	pending := append([]propPred(nil), preds...)
	for i := 1; i < len(pending); i++ { // insertion sort by arrival
		for j := i; j > 0 && pending[j].at < pending[j-1].at; j-- {
			pending[j], pending[j-1] = pending[j-1], pending[j]
		}
	}
	var queue []propPred
	var order []int
	t := 0.0
	for len(pending) > 0 || len(queue) > 0 {
		if len(queue) == 0 && t < pending[0].at {
			t = pending[0].at
		}
		for len(pending) > 0 && pending[0].at <= t {
			queue = append(queue, pending[0])
			pending = pending[1:]
		}
		best := 0
		for i, p := range queue {
			if p.deadline < queue[best].deadline {
				best = i
			}
		}
		order = append(order, queue[best].node)
		queue = append(queue[:best], queue[best+1:]...)
		t += w
	}
	return order
}

// genScenario draws one drain scenario: every arrival lands while the
// previous writes are still in flight (gaps < one write), so the whole
// set drains in a single episode, and every deadline clears the episode
// end, so every node commits in time and no failure interrupts the
// drain. Deadlines are otherwise scattered, so commit order differs
// from arrival order in general.
func genScenario(l *lcg, k int, w, phase2 float64) []propPred {
	preds := make([]propPred, k)
	at := 0.0
	episodeEnd := float64(k)*w + phase2
	for i := range preds {
		if i > 0 {
			at += (0.15 + 0.8*l.float()) * w
		}
		lead := episodeEnd + (2+40*l.float())*w
		preds[i] = propPred{node: 1 + i*3, at: at, deadline: at + lead}
	}
	return preds
}

// toReplay renders the scenario as a failure trace starting at start
// seconds (ReplayEvent.T is the strike time; the prediction arrives
// Lead seconds earlier), ordered by strike time as Validate requires.
func toReplay(preds []propPred, start float64) *failure.Replay {
	evs := make([]failure.ReplayEvent, len(preds))
	for i, p := range preds {
		evs[i] = failure.ReplayEvent{T: start + p.deadline, Node: p.node, Lead: p.deadline - p.at, Seq: i + 1}
	}
	for i := 1; i < len(evs); i++ { // insertion sort by strike time
		for j := i; j > 0 && evs[j].T < evs[j-1].T; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	re := &failure.Replay{Name: "drain-prop", Nodes: 48, HorizonSeconds: 7200, Events: evs}
	if err := re.Validate(); err != nil {
		panic(err)
	}
	return re
}

// stepCommitOrder replays the scenario through the step tier and reads
// the grant order off the trace — the first k prioritized commits of
// the run's first episode.
func stepCommitOrder(t *testing.T, model policy.ID, plat platform.Config, re *failure.Replay, k int) []int {
	t.Helper()
	plat.Replay = re
	var buf trace.Buffer
	stepsim.Simulate(stepsim.Config{Model: model, Config: plat, Trace: &buf}, 1)
	var order []int
	for _, e := range buf.Events() {
		if e.Kind == trace.VulnerableCommit {
			order = append(order, e.Node)
			if len(order) == k {
				break
			}
		}
	}
	return order
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDrainPriorityInvariant: for generated scenarios, the process
// implementation's grant order and the step port's grant order both
// equal the abstract arbiter's deadline order.
func TestDrainPriorityInvariant(t *testing.T) {
	plat := propPlatform().WithDefaults()
	d := plat.Derive()
	w := d.SingleNodePFSWrite
	const k = 12
	phase2 := plat.IO.PFSWriteTransfer(plat.App.Nodes-k, d.PerNodeGB).Seconds
	for seed := 1; seed <= 6; seed++ {
		l := lcg(seed)
		preds := genScenario(&l, k, w, phase2)
		want := refCommitOrder(preds, w)

		pp := make([]pckpt.Prediction, len(preds))
		for i, p := range preds {
			pp[i] = pckpt.Prediction{Node: p.node, At: p.at, Lead: p.deadline - p.at}
		}
		res := pckpt.Run(pckpt.Config{Nodes: plat.App.Nodes, PerNodeGB: d.PerNodeGB, IO: plat.IO}, pp)
		if !eqInts(res.CommitOrder, want) {
			t.Errorf("seed %d: process implementation drained %v, invariant wants %v", seed, res.CommitOrder, want)
		}
		if got := res.Mitigated(); got != k {
			t.Errorf("seed %d: %d/%d mitigated — scenario constraints violated", seed, got, k)
		}

		if got := stepCommitOrder(t, policy.P1, propPlatform(), toReplay(preds, 900), k); !eqInts(got, want) {
			t.Errorf("seed %d: step port drained %v, invariant wants %v", seed, got, want)
		}
	}
}

// TestAbortedMigrationInsertsInOrder pins the hybrid path: a migrating
// node whose LM is aborted by a p-ckpt request joins the queue under
// the same deadline rule as everyone else. Node 5 migrates (long
// lead), node 9 forces p-ckpt (lead below θ, but its failure due only
// after the drain completes — a failure mid-episode abandons the
// remainder, since mitigation preserves progress without preventing
// the strike), node 12 arrives during node 9's write with a deadline
// between the two — so the grant order is 9, 12, 5 while the arrival
// order was 5, 9, 12. The default θ on this platform is shorter than a
// three-commit episode, which would make "below θ yet past the episode
// end" unsatisfiable, so the scenario raises θ through the LM α knob.
func TestAbortedMigrationInsertsInOrder(t *testing.T) {
	plat := propPlatform()
	plat.LM = lm.Default().WithAlpha(8)
	plat = plat.WithDefaults()
	d := plat.Derive()
	w, theta := d.SingleNodePFSWrite, d.Theta
	phase2 := plat.IO.PFSWriteTransfer(plat.App.Nodes-3, d.PerNodeGB).Seconds
	triggerLead := 5*w + phase2 // past the 3-commit episode end, below θ
	if theta <= triggerLead {
		t.Fatalf("θ=%v ≤ trigger lead %v: α=8 no longer stretches θ past the episode; rescale the scenario", theta, triggerLead)
	}
	preds := []propPred{
		{node: 5, at: 0, deadline: 10 * theta},
		{node: 9, at: 2, deadline: 2 + triggerLead},
		{node: 12, at: 2 + 0.7*w, deadline: 2 + 0.7*w + 20*w},
	}
	want := []int{9, 12, 5}

	pp := make([]pckpt.Prediction, len(preds))
	for i, p := range preds {
		pp[i] = pckpt.Prediction{Node: p.node, At: p.at, Lead: p.deadline - p.at}
	}
	res := pckpt.Run(pckpt.Config{Nodes: plat.App.Nodes, PerNodeGB: d.PerNodeGB, IO: plat.IO, LM: plat.LM, Hybrid: true}, pp)
	if !eqInts(res.CommitOrder, want) {
		t.Errorf("process implementation drained %v, want %v", res.CommitOrder, want)
	}
	aborted := false
	for _, o := range res.Outcomes {
		if o.Node == 5 && o.Action == pckpt.ActionLMAborted {
			aborted = true
		}
	}
	if !aborted {
		t.Errorf("node 5's migration was not aborted onto the queue: %+v", res.Outcomes)
	}

	re := toReplay(preds, 1000)
	stepPlat := propPlatform()
	stepPlat.LM = lm.Default().WithAlpha(8)
	if got := stepCommitOrder(t, policy.P2, stepPlat, re, len(want)); !eqInts(got, want) {
		t.Errorf("step port drained %v, want %v", got, want)
	}
	plat2 := stepPlat
	plat2.Replay = re
	var buf trace.Buffer
	stepsim.Simulate(stepsim.Config{Model: policy.P2, Config: plat2, Trace: &buf}, 1)
	sawAbort := false
	for _, e := range buf.Events() {
		if e.Kind == trace.MigrationAborted && e.Node == 5 {
			sawAbort = true
		}
	}
	if !sawAbort {
		t.Error("step port never aborted node 5's migration")
	}
}
