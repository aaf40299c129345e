package policy

import "testing"

func TestBestRestartNoCheckpoint(t *testing.T) {
	// No checkpoint anywhere: restart from the beginning off the PFS-less
	// path.
	p, fromPFS := BestRestart(-1, FailureOutcome{})
	if p != 0 || fromPFS {
		t.Fatalf("BestRestart(-1, none) = (%g, %v), want (0, false)", p, fromPFS)
	}
}

func TestBestRestartMitigatedWins(t *testing.T) {
	p, fromPFS := BestRestart(100, FailureOutcome{Mitigated: true, MitigatedAt: 250})
	if p != 250 || !fromPFS {
		t.Fatalf("mitigated restart = (%g, %v), want (250, true)", p, fromPFS)
	}
	// A stale mitigation (older than the coordinated checkpoint) loses.
	p, fromPFS = BestRestart(300, FailureOutcome{Mitigated: true, MitigatedAt: 250})
	if p != 300 || fromPFS {
		t.Fatalf("stale mitigation = (%g, %v), want (300, false)", p, fromPFS)
	}
}

func TestResolveRestartMatchesBestRestartWithoutCorruption(t *testing.T) {
	cases := []struct {
		q   float64
		out FailureOutcome
	}{
		{-1, FailureOutcome{}},
		{0, FailureOutcome{}},
		{120, FailureOutcome{}},
		{100, FailureOutcome{Mitigated: true, MitigatedAt: 250}},
		{300, FailureOutcome{Mitigated: true, MitigatedAt: 250}},
		{-1, FailureOutcome{Mitigated: true, MitigatedAt: -1}},
	}
	for _, tc := range cases {
		s := NewState()
		wantP, wantPFS := BestRestart(tc.q, tc.out)
		p, fromPFS, corrupted := s.ResolveRestart(tc.q, tc.out)
		if p != wantP || fromPFS != wantPFS || corrupted != 0 {
			t.Errorf("ResolveRestart(%g, %+v) = (%g, %v, %d), want BestRestart's (%g, %v, 0)",
				tc.q, tc.out, p, fromPFS, corrupted, wantP, wantPFS)
		}
	}
}

func TestResolveRestartCorruptNewestFallsBackToOlder(t *testing.T) {
	s := NewState()
	s.CommitPFS(100)
	s.CommitPFS(200)
	if got := s.RetainedPFSGenerations(); got != 1 {
		t.Fatalf("retained generations = %d, want 1", got)
	}
	s.MarkCorrupt(200)
	p, fromPFS, corrupted := s.ResolveRestart(200, FailureOutcome{})
	if p != 100 || !fromPFS || corrupted != 1 {
		t.Fatalf("corrupt-newest restart = (%g, %v, %d), want (100, true, 1)", p, fromPFS, corrupted)
	}
	// The corrupt generation is gone for good: a second failure resolves
	// against the survivor without re-discovering anything.
	p, fromPFS, corrupted = s.ResolveRestart(s.PFSProgress(), FailureOutcome{})
	if p != 100 || fromPFS || corrupted != 0 {
		t.Fatalf("post-drop restart = (%g, %v, %d), want (100, false, 0)", p, fromPFS, corrupted)
	}
}

func TestResolveRestartAllCorruptRestartsFromZero(t *testing.T) {
	s := NewState()
	s.CommitPFS(100)
	s.CommitPFS(200)
	s.MarkCorrupt(100)
	s.MarkCorrupt(200)
	p, fromPFS, corrupted := s.ResolveRestart(200, FailureOutcome{})
	if p != 0 || fromPFS || corrupted != 2 {
		t.Fatalf("all-corrupt restart = (%g, %v, %d), want (0, false, 2)", p, fromPFS, corrupted)
	}
	if s.PFSProgress() != -1 || s.RetainedPFSGenerations() != 0 {
		t.Fatalf("corrupt generations not dropped: pfs=%g retained=%d", s.PFSProgress(), s.RetainedPFSGenerations())
	}
}

func TestResolveRestartCorruptMitigationFallsToCheckpoint(t *testing.T) {
	s := NewState()
	s.CommitPFS(150)
	s.CommitPFS(250)
	s.MarkCorrupt(250)
	// The proactive commit at 250 mitigated the failure but tore; the
	// restart falls back to the coordinated checkpoint at q.
	p, fromPFS, corrupted := s.ResolveRestart(150, FailureOutcome{Mitigated: true, MitigatedAt: 250})
	if p != 150 || fromPFS || corrupted != 1 {
		t.Fatalf("corrupt-mitigation restart = (%g, %v, %d), want (150, false, 1)", p, fromPFS, corrupted)
	}
}

// TestResolveRestartUndrainedBBGeneration is the paper's Fig. 1 case B on
// a degraded platform: the newest coordinated checkpoint is BB-resident
// but not yet drained, so the tier's consistent restart point q is the
// BB generation — newer than anything PFS-resident. If that generation
// reads corrupt, the fallback is the newest PFS placement itself.
func TestResolveRestartUndrainedBBGeneration(t *testing.T) {
	s := NewState()
	s.CommitPFS(100)
	s.CommitBB(300) // staged, drain still in flight
	s.MarkCorrupt(300)
	p, fromPFS, corrupted := s.ResolveRestart(300, FailureOutcome{})
	if p != 100 || !fromPFS || corrupted != 1 {
		t.Fatalf("undrained-BB fallback = (%g, %v, %d), want (100, true, 1)", p, fromPFS, corrupted)
	}
}

func TestCommitPFSRetentionCap(t *testing.T) {
	s := NewState()
	for i := 0; i <= maxPFSGens+3; i++ {
		s.CommitPFS(float64((i + 1) * 10))
	}
	if got := s.RetainedPFSGenerations(); got != maxPFSGens {
		t.Fatalf("retained %d generations, want cap %d", got, maxPFSGens)
	}
	// A non-advancing commit neither replaces nor retains.
	if s.CommitPFS(5) {
		t.Fatal("older commit advanced the placement")
	}
}

// TestCommitPFSWindowOrder pins the retained window past the cap: after
// many commits it holds the newest superseded generations, ascending —
// exactly what the append-and-drop-oldest window kept.
func TestCommitPFSWindowOrder(t *testing.T) {
	s := NewState()
	const commits = 2*maxPFSGens + 5
	for i := 1; i <= commits; i++ {
		s.CommitPFS(float64(i * 10))
	}
	if len(s.pfsGens) != maxPFSGens {
		t.Fatalf("retained %d generations, want %d", len(s.pfsGens), maxPFSGens)
	}
	// The placement is the newest commit; the window holds the maxPFSGens
	// commits before it.
	for j, g := range s.pfsGens {
		if want := float64((commits - maxPFSGens + j) * 10); g != want {
			t.Fatalf("window %v: slot %d = %g, want %g", s.pfsGens, j, g, want)
		}
	}
	if s.PFSProgress() != commits*10 {
		t.Fatalf("placement %g, want %d", s.PFSProgress(), commits*10)
	}
}

// TestCommitPFSZeroAlloc: once the window is full, advancing commits
// allocate nothing.
func TestCommitPFSZeroAlloc(t *testing.T) {
	s := NewState()
	q := 0.0
	for i := 0; i <= maxPFSGens; i++ {
		q++
		s.CommitPFS(q)
	}
	// AllocsPerRun truncates to whole allocations per run, so each run
	// commits enough generations to cycle the window several times.
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8*maxPFSGens; i++ {
			q++
			if !s.CommitPFS(q) {
				t.Fatal("advancing commit did not advance")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("CommitPFS allocated %.1f times per %d commits with a full window, want 0", allocs, 8*maxPFSGens)
	}
}
