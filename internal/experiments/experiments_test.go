package experiments

import (
	"fmt"
	"strings"
	"testing"

	"pckpt/internal/machine"
	"pckpt/internal/stats"
)

// fastParams keeps experiment tests quick; the qualitative claims they
// assert are robust at this run count.
var fastParams = Params{Runs: 80, Seed: 42}

func TestRegistryComplete(t *testing.T) {
	defs := All()
	if len(defs) != 23 {
		t.Fatalf("registry has %d experiments, want 23", len(defs))
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if d.ID == "" || d.Title == "" || d.Run == nil {
			t.Errorf("incomplete definition: %+v", d)
		}
		if seen[d.ID] {
			t.Errorf("duplicate experiment ID %q", d.ID)
		}
		seen[d.ID] = true
	}
}

func TestByID(t *testing.T) {
	d, err := ByID("fig6a")
	if err != nil || d.ID != "fig6a" {
		t.Fatalf("ByID(fig6a) = %+v, %v", d, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

func TestTable1(t *testing.T) {
	r := Table1(fastParams)
	if !strings.Contains(r.Text, "CHIMERA") || !strings.Contains(r.Text, "VULCAN") {
		t.Fatalf("Table I missing applications:\n%s", r.Text)
	}
	if v := r.Values["CHIMERA/per-node-GB"]; v < 280 || v > 290 {
		t.Fatalf("CHIMERA per-node footprint %.1f, want ≈284.5", v)
	}
}

func TestTable3(t *testing.T) {
	r := Table3(fastParams)
	if v := r.Values["OLCF Titan/mtbf-h"]; v < 6.5 || v > 7.5 {
		t.Fatalf("Titan MTBF %.2f h, want ≈7", v)
	}
}

func TestFig2a(t *testing.T) {
	r := Fig2a(Params{Runs: 30, Seed: 42})
	if r.Values["mined"] < 0.9*r.Values["planted"] {
		t.Fatalf("mining recovered %v of %v chains", r.Values["mined"], r.Values["planted"])
	}
	gen := r.Values["generator-mean-lead-s"]
	mined := r.Values["mined-mean-lead-s"]
	if gen <= 0 || mined <= 0 || mined/gen < 0.85 || mined/gen > 1.15 {
		t.Fatalf("mined mean %v vs generator %v", mined, gen)
	}
}

func TestFig2b(t *testing.T) {
	r := Fig2b(fastParams)
	if !(r.Values["peak-8task-GBs"] > r.Values["peak-1task-GBs"] &&
		r.Values["peak-8task-GBs"] > r.Values["peak-42task-GBs"]) {
		t.Fatalf("8-task curve is not the optimum: %v", r.Values)
	}
}

func TestFig2c(t *testing.T) {
	r := Fig2c(fastParams)
	if r.Values["corner-max-GBs"] <= r.Values["corner-min-GBs"] {
		t.Fatalf("matrix not increasing: %v", r.Values)
	}
	if !strings.Contains(r.Text, "heat map") {
		t.Fatal("heat map missing")
	}
}

func TestFig6aPaperClaims(t *testing.T) {
	r := Fig6a(Params{Runs: 150, Seed: 42, Apps: []string{"CHIMERA", "XGC", "POP"}})
	// Observation 2: P1 and P2 reduce total overhead substantially; P2
	// beats P1 for long-running apps; M1 does nothing for large apps.
	for _, app := range []string{"CHIMERA", "XGC", "POP"} {
		p1 := r.Values[app+"/P1/reduction-pct"]
		p2 := r.Values[app+"/P2/reduction-pct"]
		if p1 < 25 {
			t.Errorf("%s P1 reduction %.1f%%, want ≥25%%", app, p1)
		}
		if p2 < 40 {
			t.Errorf("%s P2 reduction %.1f%%, want ≥40%%", app, p2)
		}
	}
	for _, app := range []string{"CHIMERA", "XGC"} {
		if m1 := r.Values[app+"/M1/reduction-pct"]; m1 > 10 || m1 < -10 {
			t.Errorf("%s M1 reduction %.1f%%, want ≈0 (safeguard useless at scale)", app, m1)
		}
		// P1 must beat M2 for large applications (Observation 2).
		if r.Values[app+"/P1/reduction-pct"] <= r.Values[app+"/M2/reduction-pct"]-3 {
			t.Errorf("%s: P1 (%.1f%%) not ≳ M2 (%.1f%%)", app,
				r.Values[app+"/P1/reduction-pct"], r.Values[app+"/M2/reduction-pct"])
		}
	}
	// FT ratio anchors from Tables II/IV.
	if ft := r.Values["CHIMERA/M1/ft"]; ft > 0.05 {
		t.Errorf("CHIMERA M1 FT %.3f, want ≈0", ft)
	}
	if ft := r.Values["CHIMERA/P1/ft"]; ft < 0.6 || ft > 0.8 {
		t.Errorf("CHIMERA P1 FT %.3f, want ≈0.70", ft)
	}
}

func TestFig6RobustAcrossDistributions(t *testing.T) {
	// Observation 7: reductions persist across the Weibull catalogues.
	p := Params{Runs: 80, Seed: 42, Apps: []string{"XGC"}}
	for _, run := range []func(Params) Result{Fig6b, Fig6System8} {
		r := run(p)
		if red := r.Values["XGC/P2/reduction-pct"]; red < 35 {
			t.Errorf("%s: XGC P2 reduction %.1f%%, want ≥35%%", r.ID, red)
		}
	}
}

func TestFig6cCrossover(t *testing.T) {
	r := Fig6c(Params{Runs: 120, Seed: 42, Apps: []string{"CHIMERA", "POP"}})
	// Observation 8: for the largest application, P1 beats M2 at the
	// default α=3 but loses when α approaches 1.
	if r.Values["CHIMERA/P1/reduction-pct"] <= r.Values["CHIMERA/M2-3/reduction-pct"] {
		t.Errorf("CHIMERA: P1 (%.1f%%) should beat M2-3x (%.1f%%)",
			r.Values["CHIMERA/P1/reduction-pct"], r.Values["CHIMERA/M2-3/reduction-pct"])
	}
	if r.Values["CHIMERA/M2-1/reduction-pct"] <= r.Values["CHIMERA/P1/reduction-pct"] {
		t.Errorf("CHIMERA: M2-1x (%.1f%%) should beat P1 (%.1f%%)",
			r.Values["CHIMERA/M2-1/reduction-pct"], r.Values["CHIMERA/P1/reduction-pct"])
	}
	// For small applications LM always wins.
	if r.Values["POP/M2-3/reduction-pct"] <= r.Values["POP/P1/reduction-pct"] {
		t.Errorf("POP: M2 (%.1f%%) should beat P1 (%.1f%%)",
			r.Values["POP/M2-3/reduction-pct"], r.Values["POP/P1/reduction-pct"])
	}
}

func TestTable2Cliff(t *testing.T) {
	r := Table2(Params{Runs: 100, Seed: 42, Apps: []string{"CHIMERA"}})
	// The Table II signature: CHIMERA M2 collapses between 0% and −10%.
	at0 := r.Values["CHIMERA/0%/M2/ft"]
	atMinus10 := r.Values["CHIMERA/-10%/M2/ft"]
	if at0 < 0.35 || at0 > 0.6 {
		t.Errorf("CHIMERA M2 FT at 0%% = %.3f, want ≈0.47", at0)
	}
	if atMinus10 > 0.15 {
		t.Errorf("CHIMERA M2 FT at −10%% = %.3f, want ≈0.04 (the cliff)", atMinus10)
	}
	if m1 := r.Values["CHIMERA/0%/M1/ft"]; m1 > 0.05 {
		t.Errorf("CHIMERA M1 FT = %.3f, want ≈0", m1)
	}
}

func TestTable4Resilience(t *testing.T) {
	r := Table4(Params{Runs: 100, Seed: 42, Apps: []string{"CHIMERA", "XGC"}})
	// P1 keeps a usable FT ratio even at −50% lead (paper: 0.36).
	if v := r.Values["CHIMERA/-50%/P1/ft"]; v < 0.25 || v > 0.55 {
		t.Errorf("CHIMERA P1 FT at −50%% = %.3f, want ≈0.36", v)
	}
	// XGC's p-ckpt latency is so small its FT ratio barely moves.
	if hi, lo := r.Values["XGC/+50%/P1/ft"], r.Values["XGC/-50%/P1/ft"]; hi-lo > 0.15 {
		t.Errorf("XGC P1 FT swings %.3f→%.3f; paper holds it ≈0.84 throughout", lo, hi)
	}
}

func TestFig7PckptHoldsUnderShortLeads(t *testing.T) {
	r := Fig7(Params{Runs: 100, Seed: 42, Apps: []string{"CHIMERA"}})
	// Observation 3: at −50% lead, P1 still saves recomputation.
	if v := r.Values["CHIMERA/-50%/P1/recomp-red"]; v < 15 {
		t.Errorf("CHIMERA P1 recomputation reduction at −50%% = %.1f%%, want noticeably positive", v)
	}
	// At reference leads P1 nearly... saves most recomputation.
	if v := r.Values["CHIMERA/0%/P1/recomp-red"]; v < 50 {
		t.Errorf("CHIMERA P1 recomputation reduction at 0%% = %.1f%%, want ≥50%%", v)
	}
}

func TestFig4M2Cliff(t *testing.T) {
	r := Fig4(Params{Runs: 100, Seed: 42, Apps: []string{"CHIMERA"}})
	at0 := r.Values["CHIMERA/0%/M2/total-red"]
	atMinus10 := r.Values["CHIMERA/-10%/M2/total-red"]
	// A mere 10% lead decrease wipes out most of M2's benefit.
	if at0 < 15 {
		t.Errorf("CHIMERA M2 total reduction at 0%% = %.1f%%, want ≥15%%", at0)
	}
	if atMinus10 > at0/2 {
		t.Errorf("CHIMERA M2 at −10%% (%.1f%%) did not collapse from %.1f%%", atMinus10, at0)
	}
}

func TestFig8Shape(t *testing.T) {
	r := Fig8(Params{Runs: 80, Seed: 42, Apps: []string{"CHIMERA", "VULCAN"}})
	// Small applications: LM dominates across the whole range.
	for _, s := range []string{"-50%", "0%", "+50%"} {
		if v := r.Values["VULCAN/"+s+"/lm-minus-pckpt-pct"]; v < 50 {
			t.Errorf("VULCAN at %s: LM share %.1f, want strongly positive", s, v)
		}
	}
	// The largest application flips to p-ckpt as leads shrink.
	if v := r.Values["CHIMERA/-50%/lm-minus-pckpt-pct"]; v > 0 {
		t.Errorf("CHIMERA at −50%%: %.1f, want negative (p-ckpt dominant)", v)
	}
	if v := r.Values["CHIMERA/+90%/lm-minus-pckpt-pct"]; v < 0 {
		t.Errorf("CHIMERA at +90%%: %.1f, want positive (LM dominant)", v)
	}
}

func TestObs9Decline(t *testing.T) {
	r := Obs9(Params{Runs: 100, Seed: 42, Apps: []string{"XGC"}})
	// Rising FN degrades every model's total reduction...
	for _, m := range []string{"M2", "P1", "P2"} {
		base := r.Values["XGC/fn=0.125/"+m+"/total-red"]
		worst := r.Values["XGC/fn=0.400/"+m+"/total-red"]
		if worst >= base {
			t.Errorf("XGC %s: total reduction did not decline with FN (%.1f → %.1f)", m, base, worst)
		}
	}
	// ...and the LM-assisted models lose more recomputation benefit than
	// the p-ckpt model (Observation 9).
	dropP1 := r.Values["XGC/fn=0.125/P1/recomp-red"] - r.Values["XGC/fn=0.400/P1/recomp-red"]
	dropP2 := r.Values["XGC/fn=0.125/P2/recomp-red"] - r.Values["XGC/fn=0.400/P2/recomp-red"]
	if dropP2 <= dropP1 {
		t.Errorf("P2 recomputation drop (%.1f) not larger than P1's (%.1f)", dropP2, dropP1)
	}
}

func TestAnalyticExperiment(t *testing.T) {
	r := Analytic(Params{Apps: []string{"CHIMERA", "POP"}})
	if v := r.Values["alpha-at-sigma-max"]; v < 1.28 || v > 1.32 {
		t.Errorf("Eq. (8) upper break-even α = %.3f, want ≈1.30", v)
	}
	if v := r.Values["CHIMERA/theta-s"]; v < 40 || v > 42 {
		t.Errorf("CHIMERA θ = %.2f, want ≈41", v)
	}
	if !strings.Contains(r.Text, "p-ckpt wins") {
		t.Fatal("verdict column missing")
	}
}

func TestParamsAppsFilter(t *testing.T) {
	p := Params{Apps: []string{"POP"}}
	apps := p.apps("CHIMERA", "XGC")
	if len(apps) != 1 || apps[0].Name != "POP" {
		t.Fatalf("filter not applied: %v", apps)
	}
	apps = Params{}.apps("CHIMERA")
	if len(apps) != 1 || apps[0].Name != "CHIMERA" {
		t.Fatalf("defaults not applied: %v", apps)
	}
}

func TestConfigSeedStable(t *testing.T) {
	if configSeed(1, "a") == configSeed(1, "b") {
		t.Fatal("different labels must derive different seeds")
	}
	if configSeed(1, "a") != configSeed(1, "a") {
		t.Fatal("seed derivation must be stable")
	}
}

func TestLeadScaleLabel(t *testing.T) {
	cases := map[float64]string{1.5: "+50%", 1.0: "0%", 0.9: "-10%", 0.5: "-50%"}
	for s, want := range cases {
		if got := leadScaleLabel(s); got != want {
			t.Errorf("leadScaleLabel(%g) = %q, want %q", s, got, want)
		}
	}
}

func TestObs9FixRestoresRobustness(t *testing.T) {
	r := Obs9Fix(Params{Runs: 120, Seed: 42, Apps: []string{"XGC"}})
	// At high FN, the accuracy-aware variant must recover recomputation
	// benefit relative to the published model.
	pub := r.Values["XGC/fn=0.400/published/recomp-red"]
	fix := r.Values["XGC/fn=0.400/accuracy-aware/recomp-red"]
	if fix <= pub {
		t.Errorf("accuracy-aware recomp reduction %.1f%% not above published %.1f%% at FN=0.4", fix, pub)
	}
	// At baseline FN the variants use the same σ, so they agree up to
	// seed noise (each configuration derives its own seed).
	pub0 := r.Values["XGC/fn=0.125/published/total-red"]
	fix0 := r.Values["XGC/fn=0.125/accuracy-aware/total-red"]
	if pub0-fix0 > 5 || fix0-pub0 > 5 {
		t.Errorf("variants diverge at baseline FN: %.2f vs %.2f", pub0, fix0)
	}
}

func TestGlobalViewExtension(t *testing.T) {
	r := GlobalView(Params{Seed: 42})
	// With a single episode per window there is little overlap; by eight
	// the per-job mode must be visibly degraded while global holds.
	if g := r.Values["burst=8/ft-global"]; g < 0.7 {
		t.Errorf("global FT at burst=8 is %.3f, want mostly preserved", g)
	}
	if pj, g := r.Values["burst=8/ft-per-job"], r.Values["burst=8/ft-global"]; g-pj < 0.2 {
		t.Errorf("global advantage at burst=8 is only %.3f (per-job %.3f, global %.3f)", g-pj, pj, g)
	}
	for _, b := range []int{1, 2, 4, 8} {
		g := r.Values[fmt.Sprintf("burst=%d/ft-global", b)]
		pj := r.Values[fmt.Sprintf("burst=%d/ft-per-job", b)]
		if g < pj {
			t.Errorf("burst=%d: global FT %.3f below per-job %.3f", b, g, pj)
		}
	}
}

// TestObservation5And6 asserts the paper's Observations 5 and 6 on the
// Fig. 6a data: P2 cuts checkpoint overhead substantially (the σ-driven
// interval elongation), while paying more recomputation than P1.
func TestObservation5And6(t *testing.T) {
	p := Params{Runs: 150, Seed: 42, Apps: []string{"CHIMERA", "XGC"}}
	r := Fig6a(p)
	f7 := Fig7(Params{Runs: 150, Seed: 42, Apps: []string{"CHIMERA", "XGC"}})
	for _, app := range []string{"CHIMERA", "XGC"} {
		// Observation 5: P2 checkpoint-overhead reduction is large; the
		// paper reports ≈42–70 % (CHIMERA lands slightly below here, see
		// EXPERIMENTS.md).
		ck := f7.Values[app+"/0%/P2/ckpt-red"]
		if ck < 30 {
			t.Errorf("%s: P2 checkpoint reduction %.1f%%, want ≥30%%", app, ck)
		}
		// P1's checkpoint overhead is essentially unchanged.
		if p1ck := f7.Values[app+"/0%/P1/ckpt-red"]; p1ck > 10 || p1ck < -10 {
			t.Errorf("%s: P1 checkpoint reduction %.1f%%, want ≈0", app, p1ck)
		}
		// Observation 6: P1 recomputes less than P2 (more frequent
		// checkpoints), by a visible margin.
		p1rc := f7.Values[app+"/0%/P1/recomp-red"]
		p2rc := f7.Values[app+"/0%/P2/recomp-red"]
		if p1rc-p2rc < 5 {
			t.Errorf("%s: P1 recomputation advantage only %.1f pts (P1 %.1f, P2 %.1f)", app, p1rc-p2rc, p1rc, p2rc)
		}
		// Yet P2 wins on total overhead (the checkpoint savings dominate
		// for these long-running applications — the paper's
		// Recommendation).
		if r.Values[app+"/P2/reduction-pct"] <= r.Values[app+"/P1/reduction-pct"] {
			t.Errorf("%s: P2 total reduction %.1f%% not above P1's %.1f%%", app,
				r.Values[app+"/P2/reduction-pct"], r.Values[app+"/P1/reduction-pct"])
		}
	}
}

// TestFailedRunsLine pins the machine experiments' ledger line: absent
// when every run completed, so healthy goldens never move, and naming
// the count and first failure otherwise.
func TestFailedRunsLine(t *testing.T) {
	if got := failedRunsLine(machine.Summary{Runs: 4}); got != "" {
		t.Fatalf("healthy sweep got failure line %q", got)
	}
	got := failedRunsLine(machine.Summary{Runs: 3, Failed: []stats.FailedRun{{Seed: 99, Config: "machine jobs=3", Err: "boom"}}})
	for _, want := range []string{"1 of 4 runs panicked", "99", "boom"} {
		if !strings.Contains(got, want) {
			t.Errorf("failure line %q lacks %q", got, want)
		}
	}
}
