package deshlog

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/rng"
)

func TestTemplatesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	ids := map[int]bool{}
	for _, tmpl := range Templates() {
		if len(tmpl.Phrases) < 2 {
			t.Errorf("template %d has %d phrases, want ≥2", tmpl.SeqID, len(tmpl.Phrases))
		}
		if ids[tmpl.SeqID] {
			t.Errorf("duplicate template ID %d", tmpl.SeqID)
		}
		ids[tmpl.SeqID] = true
		for _, ph := range tmpl.Phrases {
			if seen[ph] {
				t.Errorf("phrase %q reused across templates", ph)
			}
			seen[ph] = true
		}
	}
	if len(ids) != 10 {
		t.Fatalf("%d templates, want 10", len(ids))
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	e := Entry{Time: 123.456, Node: 42, Component: "lustre", Phrase: "ost write timeout"}
	got, err := ParseEntry(e.Format())
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round trip: %+v != %+v", got, e)
	}
}

func TestParseEntryErrors(t *testing.T) {
	bad := []string{
		"",
		"t=1.0",
		"node=1 t=2 comp=x msg=y",
		"t=abc node=1 comp=x msg=y",
		"t=1 node=zz comp=x msg=y",
		"t=1 node=2 comp=x nomsg",
	}
	for _, line := range bad {
		if _, err := ParseEntry(line); err == nil {
			t.Errorf("line %q accepted", line)
		}
	}
}

func TestGenerateAndMineRecoversPlanted(t *testing.T) {
	src := rng.New(11)
	entries, planted := Generate(GenConfig{
		Nodes:         256,
		Duration:      6 * 30 * 24 * 3600, // six months, like the paper's logs
		Failures:      400,
		NoisePerChain: 20,
		PartialChains: 50,
	}, src)
	chains := Mine(entries)
	// Chains can collide (two same-sequence chains overlapping on one
	// node merge or break); expect to recover the large majority.
	if len(chains) < int(0.95*float64(len(planted))) {
		t.Fatalf("mined %d chains from %d planted", len(chains), len(planted))
	}
	if len(chains) > len(planted) {
		t.Fatalf("mined %d chains, more than the %d planted", len(chains), len(planted))
	}
	// Mined leads must match planted leads: index by (node, failTime).
	type key struct {
		node int
		end  float64
	}
	want := map[key]float64{}
	for _, p := range planted {
		want[key{p.Node, math.Round(p.FailTime * 1000)}] = p.Lead
	}
	matched := 0
	for _, c := range chains {
		if lead, ok := want[key{c.Node, math.Round(c.End * 1000)}]; ok {
			if math.Abs(c.Lead()-lead) > 1e-6 {
				t.Fatalf("chain at node %d: mined lead %.3f, planted %.3f", c.Node, c.Lead(), lead)
			}
			matched++
		}
	}
	if matched < len(chains)*9/10 {
		t.Fatalf("only %d/%d mined chains matched ground truth", matched, len(chains))
	}
}

func TestMineIgnoresPartialChains(t *testing.T) {
	src := rng.New(12)
	entries, _ := Generate(GenConfig{
		Nodes:         64,
		Duration:      1e6,
		Failures:      0,
		PartialChains: 200,
	}, src)
	if chains := Mine(entries); len(chains) != 0 {
		t.Fatalf("mined %d chains from partial-only log", len(chains))
	}
}

func TestMineRestartsBrokenWindow(t *testing.T) {
	tmpl := Templates()[0] // 4 phrases
	// First phrase, then first phrase again (restart), then the rest:
	// the mined lead must measure from the SECOND first-phrase.
	entries := []Entry{
		{Time: 0, Node: 1, Component: tmpl.Component, Phrase: tmpl.Phrases[0]},
		{Time: 100, Node: 1, Component: tmpl.Component, Phrase: tmpl.Phrases[0]},
		{Time: 110, Node: 1, Component: tmpl.Component, Phrase: tmpl.Phrases[1]},
		{Time: 120, Node: 1, Component: tmpl.Component, Phrase: tmpl.Phrases[2]},
		{Time: 130, Node: 1, Component: tmpl.Component, Phrase: tmpl.Phrases[3]},
	}
	chains := Mine(entries)
	if len(chains) != 1 {
		t.Fatalf("mined %d chains, want 1", len(chains))
	}
	if got := chains[0].Lead(); got != 30 {
		t.Fatalf("lead = %g, want 30 (window must restart)", got)
	}
}

func TestMineSeparatesNodes(t *testing.T) {
	tmpl := Templates()[3] // 3 phrases
	// Interleave the same chain on two nodes; both must be found.
	var entries []Entry
	for i, ph := range tmpl.Phrases {
		entries = append(entries,
			Entry{Time: float64(10 * i), Node: 1, Component: tmpl.Component, Phrase: ph},
			Entry{Time: float64(10*i + 1), Node: 2, Component: tmpl.Component, Phrase: ph},
		)
	}
	chains := Mine(entries)
	if len(chains) != 2 {
		t.Fatalf("mined %d chains, want 2", len(chains))
	}
}

func TestStatsQuartiles(t *testing.T) {
	var chains []Chain
	for i := 1; i <= 5; i++ {
		chains = append(chains, Chain{SeqID: 3, Node: 0, Start: 0, End: float64(i * 10)})
	}
	st := Stats(chains)
	if len(st) != 1 {
		t.Fatalf("stats groups = %d", len(st))
	}
	s := st[0]
	if s.Count != 5 || s.Mean != 30 || s.Min != 10 || s.Max != 50 || s.P50 != 30 {
		t.Fatalf("stats = %+v", s)
	}
	if s.P25 != 20 || s.P75 != 40 {
		t.Fatalf("quartiles = %g/%g", s.P25, s.P75)
	}
}

func TestToLeadModelMatchesPlanted(t *testing.T) {
	src := rng.New(13)
	entries, _ := Generate(GenConfig{
		Nodes:    512,
		Duration: 6 * 30 * 24 * 3600,
		Failures: 3000,
	}, src)
	model, err := ToLeadModel(Mine(entries))
	if err != nil {
		t.Fatal(err)
	}
	// The reconstructed model's mean must track the generating model's
	// analytic mean.
	want := failure.DefaultLeadTimes().Mean()
	got := model.Mean()
	if math.Abs(got-want)/want > 0.08 {
		t.Fatalf("mined model mean %.2f, generator mean %.2f", got, want)
	}
}

func TestRenderStats(t *testing.T) {
	st := []SeqStats{{SeqID: 1, Count: 3, Mean: 42.5, Min: 40, Max: 45, P25: 41, P50: 42, P75: 44}}
	out := RenderStats(st)
	for _, want := range []string{"seq", "42.50", "45.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestToLeadModelEmpty(t *testing.T) {
	if _, err := ToLeadModel(nil); err == nil {
		t.Fatal("empty chain set accepted")
	}
}

func TestGeneratePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Generate(GenConfig{Nodes: 0, Duration: 1}, rng.New(1))
}

// TestGenConfigValidate: every field is checked, NaN and ±Inf included,
// and the error names the field and its value; Generate panics with it.
func TestGenConfigValidate(t *testing.T) {
	good := GenConfig{Nodes: 4, Duration: 100, Failures: 2, NoisePerChain: 1, PartialChains: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (GenConfig{Nodes: 1, Duration: 1}).Validate(); err != nil {
		t.Fatalf("zero counts rejected: %v", err)
	}
	for _, c := range []struct {
		mutate func(*GenConfig)
		want   string
	}{
		{func(c *GenConfig) { c.Nodes = 0 }, "Nodes 0"},
		{func(c *GenConfig) { c.Nodes = -5 }, "Nodes -5"},
		{func(c *GenConfig) { c.Duration = 0 }, "Duration 0"},
		{func(c *GenConfig) { c.Duration = -1 }, "Duration -1"},
		{func(c *GenConfig) { c.Duration = math.NaN() }, "Duration NaN"},
		{func(c *GenConfig) { c.Duration = math.Inf(1) }, "Duration +Inf"},
		{func(c *GenConfig) { c.Duration = math.Inf(-1) }, "Duration -Inf"},
		{func(c *GenConfig) { c.Failures = -1 }, "Failures -1"},
		{func(c *GenConfig) { c.NoisePerChain = -1 }, "NoisePerChain -1"},
		{func(c *GenConfig) { c.PartialChains = -3 }, "PartialChains -3"},
	} {
		cfg := good
		c.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %v, want one naming %q", cfg, err, c.want)
			continue
		}
		func() {
			defer func() {
				r := recover()
				if e, ok := r.(error); !ok || e.Error() != err.Error() {
					t.Errorf("%+v: Generate panicked with %v, want %v", cfg, r, err)
				}
			}()
			Generate(cfg, rng.New(1))
		}()
	}
}

// TestByTimeMatchesSliceStable: byTime orders random entries exactly as
// sort.SliceStable by time does, and leaves its input as it was. Times
// come from 16 values, -0 and +0 among them, so most entries tie and
// only their input order (Node) tells them apart.
func TestByTimeMatchesSliceStable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(300)
		if trial%50 == 0 {
			n = 20000 // past every small-slice path of the sort
		}
		entries := make([]Entry, n)
		for i := range entries {
			tm := float64(r.Intn(16) - 8)
			if tm == 0 && r.Intn(2) == 0 {
				tm = math.Copysign(0, -1)
			}
			entries[i] = Entry{Time: tm, Node: i}
		}
		in := slices.Clone(entries)
		want := slices.Clone(entries)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Time < want[j].Time })
		if got := byTime(entries); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d entries): byTime differs from sort.SliceStable", trial, n)
		}
		if !reflect.DeepEqual(entries, in) {
			t.Fatalf("trial %d: byTime changed its input", trial)
		}
	}
}
