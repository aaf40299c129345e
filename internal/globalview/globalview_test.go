package globalview

import (
	"math"
	"reflect"
	"testing"

	"pckpt/internal/iomodel"
)

func twoJobs() Config {
	return Config{
		Jobs: []Job{
			{Name: "A", Nodes: 505, PerNodeGB: 40},
			{Name: "B", Nodes: 505, PerNodeGB: 40},
		},
	}
}

func TestValidate(t *testing.T) {
	if err := twoJobs().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{},
		{Jobs: []Job{{Name: "", Nodes: 2, PerNodeGB: 1}}},
		{Jobs: []Job{{Name: "x", Nodes: 1, PerNodeGB: 1}}},
		{Jobs: []Job{{Name: "x", Nodes: 2, PerNodeGB: 0}}},
		{Jobs: []Job{{Name: "x", Nodes: 2, PerNodeGB: 1}}, Mode: 7},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestModeString(t *testing.T) {
	if PerJob.String() != "per-job" || Global.String() != "global" {
		t.Fatal("mode strings wrong")
	}
}

func TestSingleEpisodeMatchesClosedForm(t *testing.T) {
	// With one episode and no competition, both modes give the textbook
	// timing: vulnerable commit at the uncontended single-node write.
	io := iomodel.New(iomodel.DefaultSummit())
	for _, mode := range []Mode{PerJob, Global} {
		cfg := twoJobs()
		cfg.Mode = mode
		res := Run(cfg, []Prediction{{Job: 0, Node: 3, At: 0, Lead: 100}})
		if len(res.Outcomes) != 1 {
			t.Fatalf("%v: %d outcomes", mode, len(res.Outcomes))
		}
		o := res.Outcomes[0]
		want := io.SingleNodePFSWriteTime(40)
		if math.Abs(o.CommitAt-want) > 1e-6 {
			t.Fatalf("%v: commit at %.4f, want %.4f", mode, o.CommitAt, want)
		}
		if !o.Mitigated {
			t.Fatalf("%v: uncontended episode missed its deadline", mode)
		}
		wantEnd := want + io.PFSWriteTime(504, 40)
		if math.Abs(o.EpisodeEnd-wantEnd) > 1e-6 {
			t.Fatalf("%v: episode end %.4f, want %.4f", mode, o.EpisodeEnd, wantEnd)
		}
	}
}

// overlapWorkload: job B's episode starts first; its phase-2 bulk flood is
// in full swing when job A's short-lead vulnerable node arrives.
func overlapWorkload(io *iomodel.Model) []Prediction {
	phase1 := io.SingleNodePFSWriteTime(40)
	tightLead := io.SingleNodePFSWriteTime(40) * 1.5
	return []Prediction{
		{Job: 1, Node: 9, At: 0, Lead: 1000},
		{Job: 0, Node: 2, At: phase1 * 2, Lead: tightLead},
	}
}

func TestGlobalViewRescuesTightDeadline(t *testing.T) {
	io := iomodel.New(iomodel.DefaultSummit())
	preds := overlapWorkload(io)

	perJob := twoJobs()
	perJob.Mode = PerJob
	rPer := Run(perJob, preds)

	global := twoJobs()
	global.Mode = Global
	rGlob := Run(global, preds)

	// Under per-job coordination, job A's vulnerable write shares the
	// PFS with job B's 504-node flood and misses its tight deadline.
	var perA, globA Outcome
	for _, o := range rPer.Outcomes {
		if o.Job == 0 {
			perA = o
		}
	}
	for _, o := range rGlob.Outcomes {
		if o.Job == 0 {
			globA = o
		}
	}
	if perA.Mitigated {
		t.Fatalf("per-job: tight deadline unexpectedly met (commit %.2f, deadline %.2f)", perA.CommitAt, perA.Deadline)
	}
	if !globA.Mitigated {
		t.Fatalf("global: tight deadline missed (commit %.2f, deadline %.2f)", globA.CommitAt, globA.Deadline)
	}
	if rGlob.FTRatio() <= rPer.FTRatio() {
		t.Fatalf("global FT %.2f not above per-job %.2f", rGlob.FTRatio(), rPer.FTRatio())
	}
	// The global vulnerable commit runs at full single-writer speed.
	soloDur := io.SingleNodePFSWriteTime(40)
	globDur := globA.CommitAt - preds[1].At
	if math.Abs(globDur-soloDur) > 1e-6 {
		t.Fatalf("global commit took %.4f, want uncontended %.4f", globDur, soloDur)
	}
	// The per-job one was measurably slower (bandwidth shared).
	perDur := perA.CommitAt - preds[1].At
	if perDur < soloDur*1.5 {
		t.Fatalf("per-job commit %.4f not slowed vs solo %.4f", perDur, soloDur)
	}
}

func TestPreemptionPausesAndResumesBulk(t *testing.T) {
	io := iomodel.New(iomodel.DefaultSummit())
	cfg := twoJobs()
	cfg.Mode = Global
	preds := overlapWorkload(io)
	res := Run(cfg, preds)
	// Job B's episode must still complete (the suspended bulk resumes),
	// and its total time exceeds the uncontended episode by at least the
	// preemption window.
	var b Outcome
	for _, o := range res.Outcomes {
		if o.Job == 1 {
			b = o
		}
	}
	uncontended := io.SingleNodePFSWriteTime(40) + io.PFSWriteTime(504, 40)
	if b.EpisodeEnd <= uncontended {
		t.Fatalf("preempted episode finished in %.2f, faster than uncontended %.2f", b.EpisodeEnd, uncontended)
	}
	if !b.Mitigated {
		t.Fatal("job B's ample-lead episode must still be mitigated")
	}
}

func TestPeakLaneSharers(t *testing.T) {
	io := iomodel.New(iomodel.DefaultSummit())
	preds := overlapWorkload(io)
	perJob := twoJobs()
	rPer := Run(perJob, preds)
	if rPer.PeakLaneSharers < 2 {
		t.Fatalf("per-job mode never overlapped writers (peak %d)", rPer.PeakLaneSharers)
	}
}

func TestSameJobVulnerableCommitsSerializeByPriority(t *testing.T) {
	// Two same-job vulnerable commits go through the job's priority
	// queue back to back; their bulk phases serialize after them.
	io := iomodel.New(iomodel.DefaultSummit())
	solo := io.SingleNodePFSWriteTime(40)
	bulk := io.PFSWriteTime(504, 40)
	for _, mode := range []Mode{PerJob, Global} {
		cfg := twoJobs()
		cfg.Mode = mode
		res := Run(cfg, []Prediction{
			{Job: 0, Node: 1, At: 0, Lead: 1e6},
			{Job: 0, Node: 2, At: 0.5, Lead: 1e6},
		})
		if len(res.Outcomes) != 2 {
			t.Fatalf("%v: %d outcomes", mode, len(res.Outcomes))
		}
		first, second := res.Outcomes[0], res.Outcomes[1]
		// The second vulnerable commit follows the first directly (it
		// does NOT wait for the first episode's bulk phase).
		if second.CommitAt > first.CommitAt+solo+1 {
			t.Fatalf("%v: second commit at %.2f waited past back-to-back %.2f", mode, second.CommitAt, first.CommitAt+solo)
		}
		// Both bulk phases complete, serialized per job: the later
		// episode ends at least one uncontended bulk after the earlier.
		if second.EpisodeEnd < first.EpisodeEnd+0.5*bulk {
			t.Fatalf("%v: bulk phases overlapped within one job (%.2f vs %.2f)", mode, second.EpisodeEnd, first.EpisodeEnd)
		}
	}
}

func TestConservationOfBytes(t *testing.T) {
	// Processor sharing must not lose work: under heavy overlap, every
	// episode eventually completes with all bytes written.
	cfg := Config{
		Jobs: []Job{
			{Name: "A", Nodes: 64, PerNodeGB: 20},
			{Name: "B", Nodes: 128, PerNodeGB: 10},
			{Name: "C", Nodes: 32, PerNodeGB: 40},
		},
		Mode: PerJob,
	}
	var preds []Prediction
	for i := 0; i < 9; i++ {
		preds = append(preds, Prediction{Job: i % 3, Node: i, At: float64(i), Lead: 50})
	}
	res := Run(cfg, preds)
	if len(res.Outcomes) != len(preds) {
		t.Fatalf("%d outcomes, want %d", len(res.Outcomes), len(preds))
	}
	for _, o := range res.Outcomes {
		if o.EpisodeEnd <= o.CommitAt || o.CommitAt <= 0 {
			t.Fatalf("inconsistent episode times: %+v", o)
		}
	}
	episodes := 0
	for _, j := range res.Jobs {
		episodes += j.Episodes
	}
	if episodes != len(preds) {
		t.Fatalf("job episode counts sum to %d, want %d", episodes, len(preds))
	}
}

func TestDeterminism(t *testing.T) {
	cfg := twoJobs()
	cfg.Mode = Global
	io := iomodel.New(iomodel.DefaultSummit())
	preds := overlapWorkload(io)
	a := Run(cfg, preds)
	b := Run(cfg, preds)
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatal("nondeterministic outcome count")
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("outcome %d differs between identical runs", i)
		}
	}
}

// TestTiesAreDeterministic: three identical jobs whose vulnerable nodes
// are predicted at the same instants with the same lead make the lane's
// wakes and completions tie. Every run must still give one Outcomes
// list: writers join, are re-rated and leave in a fixed order, never in
// a map's.
func TestTiesAreDeterministic(t *testing.T) {
	cfg := Config{Jobs: []Job{
		{Name: "J0", Nodes: 64, PerNodeGB: 40},
		{Name: "J1", Nodes: 64, PerNodeGB: 40},
		{Name: "J2", Nodes: 64, PerNodeGB: 40},
	}}
	preds := []Prediction{
		{Job: 0, Node: 1, At: 0, Lead: 30},
		{Job: 1, Node: 1, At: 0, Lead: 30},
		{Job: 2, Node: 1, At: 0, Lead: 30},
		{Job: 0, Node: 2, At: 5, Lead: 30},
		{Job: 1, Node: 2, At: 5, Lead: 30},
	}
	for _, mode := range []Mode{PerJob, Global} {
		cfg.Mode = mode
		first := Run(cfg, preds).Outcomes
		for i := 1; i < 200; i++ {
			if got := Run(cfg, preds).Outcomes; !reflect.DeepEqual(got, first) {
				t.Fatalf("%v: run %d gave\n%+v\nafter\n%+v", mode, i, got, first)
			}
		}
	}
}

func TestRunPanicsOnBadPrediction(t *testing.T) {
	cases := [][]Prediction{
		{{Job: 5, At: 0, Lead: 1}},
		{{Job: 0, At: -1, Lead: 1}},
		{{Job: 0, At: 0, Lead: -1}},
	}
	for i, preds := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			Run(twoJobs(), preds)
		}()
	}
}

func TestFTRatioEmpty(t *testing.T) {
	r := &Result{}
	if r.FTRatio() != 0 {
		t.Fatal("empty result FT ratio must be 0")
	}
}
