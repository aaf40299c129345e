package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestMain runs a child repetition when the benchmark re-executes this
// test binary, and otherwise moves to the repository root, the working
// directory the benchmark expects (children inherit it).
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func loadBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesProgram checks that every name in BENCHMARK.json
// is well formed and that the workloads and metrics it lists, with their
// units, are exactly the ones the program runs and emits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("malformed name %q", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: malformed unit %q", name, unit)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	var got []string
	for _, w := range b.Workloads {
		check(w.Name, "")
		got = append(got, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(got, workloadNames) {
		t.Errorf("workloads %v, program runs %v", got, workloadNames)
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		check(m.Name, m.Unit)
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bad bound %g or direction %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range b.PerLayer {
		check(m.Name, m.Unit)
		layer = append(layer, metricDef{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: bad direction %q", m.Name, m.Better)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program emits %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("per_layer %v, program emits %v", layer, perLayer)
	}
}

// TestSmoke runs every workload untraced and traced at two runs per
// configuration and one repetition, and checks the result line.
func TestSmoke(t *testing.T) {
	for _, trace := range []int{0, 1} {
		want := endToEnd
		if trace == 1 {
			want = perLayer
		}
		for _, w := range workloadNames {
			var out bytes.Buffer
			code := benchMain([]string{"-workload", w, "-seed", "42", "-runs", "2", "-reps", "1",
				"-seconds", "0", "-trace", strconv.Itoa(trace), "-workdir", t.TempDir()}, &out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line %q: %v", w, trace, lines[len(lines)-1], err)
			}
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: exit %d, correct %v, %d of %d calls failed", w, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%d: metric %s missing or not in %s: %+v", w, trace, m.name, m.unit, got)
				}
			}
			if len(lines) != len(want)+1 {
				t.Errorf("%s trace=%d: %d metric lines, want %d", w, trace, len(lines)-1, len(want))
			}
		}
	}
}

// TestSelfTimes checks the self-time arithmetic on overlapping children
// (a pool) and a child reaching past its parent's end.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "a.leaf", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "c", Start: 80, End: 90},
		{ID: 6, Parent: 5, Name: "c.late", Start: 85, End: 95},
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 5, 5: 10 - 5, 6: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
	if err := checkNesting(spans); err == nil || !strings.Contains(err.Error(), "c.late") {
		t.Errorf("checkNesting = %v, want c.late outside its parent", err)
	}
}

// TestNesting checks the nesting rules and that spans a tracer records
// from a worker pool nest, with non-negative self times.
func TestNesting(t *testing.T) {
	bad := map[string][]span{
		"unfinished": {{ID: 1, Start: 5, End: 0}},
		"no parent":  {{ID: 1, End: 10}, {ID: 2, Parent: 7, End: 5}},
		"trace":      {{ID: 1, Trace: "x", End: 10}, {ID: 2, Parent: 1, Trace: "y", End: 5}},
		"outside":    {{ID: 1, Start: 5, End: 10}, {ID: 2, Parent: 1, Start: 4, End: 6}},
	}
	for name, spans := range bad {
		if checkNesting(spans) == nil {
			t.Errorf("%s: checkNesting accepted %+v", name, spans)
		}
	}
	tr := newTracer("t")
	root := tr.root("root", groupReplay)
	tr.phase(root, "pool", "", func(id int) int64 {
		pool(64, 4, func(i int) {
			tr.timed(id, "run", "", func() int64 { return int64(i) })
		})
		return 64
	})
	tr.finish(root, 0, 0)
	if err := checkNesting(tr.spans); err != nil {
		t.Fatal(err)
	}
	for id, self := range selfTimes(tr.spans) {
		if self < 0 {
			t.Errorf("span %d: negative self time %d", id, self)
		}
	}
	if n := len(tr.spans); n != 66 {
		t.Errorf("%d spans, want 66", n)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	}
	for _, c := range cases {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestJudge checks the pairing rule's verdicts.
func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x * f
		}
		return out
	}
	lower := rule{higher: false, bound: 0.05}
	for _, c := range []struct {
		child []float64
		r     rule
		want  string
	}{
		{parent, lower, "ok"},
		{scale(0.8), lower, "gain"},
		{scale(1.2), lower, "regression"},
		{scale(1.2), rule{higher: true, bound: 0.05}, "gain"},
		{scale(1.02), lower, "ok"},
		{parent, rule{}, "-"},
	} {
		if got := judge(parent, c.child, c.r).verdict; got != c.want {
			t.Errorf("judge(%v, %+v) = %s, want %s", c.child[:2], c.r, got, c.want)
		}
	}
	wide := []float64{50, 150, 60, 140, 100, 100, 70, 130, 90, 110}
	if got := judge(wide, wide, lower).verdict; got != "unresolved" {
		t.Errorf("wide parent: %s, want unresolved", got)
	}
}

// TestFailureAccounting checks that a panicking or failing call is counted
// against the attempted calls, and that a child that died fails all of its
// calls.
func TestFailureAccounting(t *testing.T) {
	var r replayer
	r.do("ok", func() error { return nil })
	r.do("error", func() error { return os.ErrNotExist })
	r.do("panic", func() error { panic("boom") })
	if a, f := r.attempted.Load(), r.failed.Load(); a != 3 || f != 2 {
		t.Errorf("attempted %d, failed %d; want 3, 2", a, f)
	}
	if len(r.errs) != 2 || !strings.Contains(r.errs[1], "panic: boom") {
		t.Errorf("errors %q", r.errs)
	}
	var tl tally
	tl.account(child{err: os.ErrProcessDone}, 40)
	tl.account(child{rep: report{Attempted: 1}}, 1)
	if tl.attempted != 41 || tl.failed != 40 || len(tl.problems) != 1 {
		t.Errorf("tally %+v", tl)
	}
}
