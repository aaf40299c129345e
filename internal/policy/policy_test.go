package policy

import (
	"math"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/lm"
)

func TestCatalogue(t *testing.T) {
	if got := len(All()); got != 5 {
		t.Fatalf("catalogue has %d entries, want 5", got)
	}
	names := map[ID]string{B: "B", M1: "M1", M2: "M2", P1: "P1", P2: "P2"}
	for id, want := range names {
		if id.String() != want {
			t.Errorf("%d.String() = %q, want %q", uint8(id), id.String(), want)
		}
		back, err := ByName(want)
		if err != nil || back != id {
			t.Errorf("ByName(%q) = %v, %v", want, back, err)
		}
		if !id.Valid() {
			t.Errorf("%v not Valid", id)
		}
	}
	if _, err := ByName("X9"); err == nil {
		t.Error("ByName accepted an unknown model")
	}
	if ID(9).Valid() {
		t.Error("out-of-range ID reported Valid")
	}
	labels := map[ID]string{B: "base", M1: "", M2: "", P1: "p-ckpt", P2: "hybrid"}
	for id, want := range labels {
		if id.NodeLabel() != want {
			t.Errorf("%v.NodeLabel() = %q, want %q", id, id.NodeLabel(), want)
		}
	}
}

func TestCapabilityPredicates(t *testing.T) {
	type caps struct{ pred, lm bool }
	want := map[ID]caps{
		B:  {false, false},
		M1: {true, false},
		M2: {true, true},
		P1: {true, false},
		P2: {true, true},
	}
	for id, w := range want {
		got := caps{id.UsesPrediction(), id.UsesLM()}
		if got != w {
			t.Errorf("%v capabilities = %+v, want %+v", id, got, w)
		}
	}
}

// TestFeasibleTieMigrates: a migration is feasible when the lead covers
// θ, a tie included (the migration ends exactly at the failure). At
// lead = θ both LM strategies migrate; one ulp shorter, M2 lets the
// failure strike and P2 falls back to a p-ckpt episode.
func TestFeasibleTieMigrates(t *testing.T) {
	theta := lm.Default().Theta(100)
	short := math.Nextafter(theta, 0)
	for _, c := range []struct {
		id   ID
		lead float64
		want Action
	}{
		{M2, theta, ActMigrate},
		{M2, short, ActNone},
		{P2, theta, ActMigrate},
		{P2, short, ActStartEpisode},
	} {
		if got := For(c.id).OnPrediction(NewState(), 3, c.lead, theta); got != c.want {
			t.Errorf("%v at lead %v (θ = %v): action %v, want %v", c.id, c.lead, theta, got, c.want)
		}
	}
}

func TestStateFailureStrikesVoidEpoch(t *testing.T) {
	s := NewState()
	epoch := s.Epoch()
	s.RecordPrediction(7, Prediction{Node: 3, FailAt: 100, Lead: 50})
	var outstanding int
	s.EachPrediction(func(id int64, p Prediction) { outstanding++ })
	if outstanding != 1 {
		t.Fatal("prediction not recorded")
	}
	out := For(P2).OnFailure(s, Event{ID: 7, Node: 3, Kind: failure.KindFailure})
	if s.Epoch() == epoch {
		t.Error("failure did not advance the fail epoch")
	}
	outstanding = 0
	s.EachPrediction(func(id int64, p Prediction) { outstanding++ })
	if outstanding != 0 {
		t.Error("struck failure's prediction still outstanding")
	}
	q, fromPFS := BestRestart(40, out)
	if q != 40 || fromPFS {
		t.Errorf("BestRestart(40, unmitigated) = %v, %v", q, fromPFS)
	}
	s.Mitigate(8, 75)
	out = For(P2).OnFailure(s, Event{ID: 8, Node: 4, Kind: failure.KindFailure})
	if q, fromPFS = BestRestart(40, out); q != 75 || !fromPFS {
		t.Errorf("BestRestart(40, mitigated@75) = %v, %v, want 75 from PFS", q, fromPFS)
	}
}

func TestForPanicsOnUnknownID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("For(9) did not panic")
		}
	}()
	For(ID(9))
}
