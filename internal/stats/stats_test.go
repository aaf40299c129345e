package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestOverheadsTotalAddScale(t *testing.T) {
	a := Overheads{Checkpoint: 1, Recompute: 2, Recovery: 3}
	if a.Total() != 6 {
		t.Fatalf("Total = %g", a.Total())
	}
	b := a.Add(Overheads{Checkpoint: 10, Recompute: 20, Recovery: 30})
	if b.Checkpoint != 11 || b.Recompute != 22 || b.Recovery != 33 {
		t.Fatalf("Add = %+v", b)
	}
	c := a.Scale(2)
	if c.Total() != 12 {
		t.Fatalf("Scale = %+v", c)
	}
}

func TestOverheadsHoursAndString(t *testing.T) {
	o := Overheads{Checkpoint: 3600, Recompute: 7200, Recovery: 0}
	h := o.Hours()
	if h.Checkpoint != 1 || h.Recompute != 2 {
		t.Fatalf("Hours = %+v", h)
	}
	if !strings.Contains(o.String(), "ckpt=1.00h") {
		t.Fatalf("String = %q", o.String())
	}
}

func TestFTRatio(t *testing.T) {
	r := RunResult{Failures: 6, Mitigated: 3, Avoided: 4}
	// total = 6 struck + 4 avoided = 10; handled = 7.
	if got := r.FTRatio(); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("FTRatio = %g, want 0.7", got)
	}
	if (RunResult{}).FTRatio() != 0 {
		t.Fatal("no-failure run must have FT ratio 0")
	}
	if r.TotalFailures() != 10 {
		t.Fatalf("TotalFailures = %d", r.TotalFailures())
	}
}

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary = %+v", s)
	}
	// Sample std of this classic dataset is sqrt(32/7).
	if want := math.Sqrt(32.0 / 7); math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("Std = %g, want %g", s.Std, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %g/%g", s.Min, s.Max)
	}
	if s.CI95Lo >= s.Mean || s.CI95Hi <= s.Mean {
		t.Fatalf("CI does not bracket mean: %+v", s)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty sample not zero")
	}
	s := Summarize([]float64{42})
	if s.N != 1 || s.Mean != 42 || s.Std != 0 || s.CI95Lo != 42 || s.CI95Hi != 42 {
		t.Fatalf("singleton summary = %+v", s)
	}
}

func TestSummarizeQuickBounds(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			// Restrict to magnitudes where the sums cannot overflow.
			if !math.IsNaN(x) && math.Abs(x) < 1e100 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.Std >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAggMeans(t *testing.T) {
	var a Agg
	a.Add(RunResult{Overheads: Overheads{Checkpoint: 10, Recompute: 20, Recovery: 2}, WallSeconds: 100, Failures: 2, Mitigated: 1})
	a.Add(RunResult{Overheads: Overheads{Checkpoint: 30, Recompute: 0, Recovery: 0}, WallSeconds: 200, Failures: 2, Mitigated: 2})
	if len(a.Runs()) != 2 {
		t.Fatalf("N = %d", len(a.Runs()))
	}
	mo := a.MeanOverheads()
	if mo.Checkpoint != 20 || mo.Recompute != 10 || mo.Recovery != 1 {
		t.Fatalf("MeanOverheads = %+v", mo)
	}
	if a.MeanWallSeconds() != 150 {
		t.Fatalf("MeanWallSeconds = %g", a.MeanWallSeconds())
	}
	// Pooled FT ratio: 3 handled / 4 failures.
	if got := a.MeanFTRatio(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("MeanFTRatio = %g", got)
	}
}

func TestAggEmpty(t *testing.T) {
	var a Agg
	if a.MeanOverheads().Total() != 0 || a.MeanFTRatio() != 0 || a.MeanWallSeconds() != 0 {
		t.Fatal("empty Agg must return zeros")
	}
}

func TestAggTotalSummary(t *testing.T) {
	var a Agg
	a.Add(RunResult{Overheads: Overheads{Checkpoint: 10}})
	a.Add(RunResult{Overheads: Overheads{Checkpoint: 20}})
	s := a.TotalSummary()
	if s.N != 2 || s.Mean != 15 {
		t.Fatalf("TotalSummary = %+v", s)
	}
}

func TestPercentReduction(t *testing.T) {
	if got := PercentReduction(100, 47); got != 53 {
		t.Fatalf("PercentReduction = %g", got)
	}
	if got := PercentReduction(100, 130); got != -30 {
		t.Fatalf("negative reduction = %g", got)
	}
	if PercentReduction(0, 5) != 0 {
		t.Fatal("zero base must yield 0")
	}
}

func TestReductionBreakdown(t *testing.T) {
	base := Overheads{Checkpoint: 100, Recompute: 200, Recovery: 50}
	m := Overheads{Checkpoint: 50, Recompute: 100, Recovery: 50}
	ck, rc, rv, tot := ReductionBreakdown(base, m)
	if ck != 50 || rc != 50 || rv != 0 {
		t.Fatalf("breakdown = %g %g %g", ck, rc, rv)
	}
	wantTot := 100 * (350.0 - 200) / 350
	if math.Abs(tot-wantTot) > 1e-12 {
		t.Fatalf("total reduction = %g, want %g", tot, wantTot)
	}
}
