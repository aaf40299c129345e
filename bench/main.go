// Command bench is the repository benchmark. It drives the simulator from
// outside, through the public entry points a user's run reaches
// (experiments, runcache, scenario, machine, stepsim, crmodel, cluster),
// and reports what users wait on: simulated runs per second, CPU and
// allocations per run, set-up time and peak memory, per workload.
//
// Every repetition runs in a fresh child process of this binary, one at a
// time, so pools, heap and GC state never leak between repetitions and
// each child's set-up time and peak RSS are its own. Children keep making
// repetitions until both -reps and -seconds are reached; every figure is
// the median over them. -trace 1 instead runs one untraced repetition and
// one traced replay of the same calls, and reports per-layer metrics read
// off the replay's spans.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload fig4-cold --seed 42 --seconds 15 --trace 0
//	bash bench/run.sh -out parent.jsonl        # all four workloads
//	bash bench/run.sh -compare parent.jsonl child.jsonl
//
// Every metric prints as "workload metric value unit"; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The exit code is non-zero when an output does not
// match its reference or a call failed.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// childEnv marks a process started by the benchmark as one repetition.
const childEnv = "PCKPT_BENCH_CHILD"

// workloadNames are the benchmark's workloads, in the order a full run
// measures them (fig4-warm reads the cache the last fig4-cold wrote).
var workloadNames = []string{"fig4-cold", "fig4-warm", "fig7-metered", "machine-spec"}

// setupProbes is how many set-up-only children each workload adds to
// its repetitions' set-up samples.
const setupProbes = 20

// deadline bounds one workload's measurement; children still running
// then are killed and their calls count as failed.
const deadline = 170 * time.Second

// references holds the seed-42 output digests of every workload at its
// default size. A speed-only change must leave them unchanged.
//
//go:embed reference.json
var references []byte

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	reps     int
	runs     int
	out      string
	workdir  string
}

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames)+" (default all)")
	fs.Uint64Var(&o.seed, "seed", 42, "base seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 15, "keep starting repetitions until this many seconds have passed")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced replay and reports per-layer metrics")
	fs.IntVar(&o.reps, "reps", 3, "minimum repetitions per workload")
	fs.IntVar(&o.runs, "runs", 0, "shrink every workload to this many runs (smoke runs; skips the reference digests)")
	fs.StringVar(&o.out, "out", "", "append one JSON line per workload to this file")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for result caches and span files")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments, parent first")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), "BENCHMARK.json", stdout)
	}
	names := workloadNames
	if o.workload != "" {
		if !slices.Contains(workloadNames, o.workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", o.workload, workloadNames)
			return 2
		}
		names = []string{o.workload}
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	results, err := runAll(o, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	ok := true
	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		ok = ok && r.Correct && r.Failed == 0
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for _, name := range sortedKeys(r.Metrics) {
			m := r.Metrics[name]
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				fmt.Fprintf(os.Stderr, "%s: %s is not a number\n", r.Workload, name)
				m.Value, final.Correct, ok = 0, false, false
			}
			fmt.Fprintf(stdout, "%s %s %s %s\n", r.Workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			final.Metrics[name] = m
		}
	}
	if o.out != "" {
		if err := appendResults(o.out, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{final.Correct, final.Attempted, final.Failed, final.Metrics})
	fmt.Fprintln(stdout, string(line))
	if !ok {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome; -out writes one per line.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func appendResults(path string, results []result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// runAll measures each workload in turn inside a private work directory
// that is removed afterwards.
func runAll(o options, names []string) ([]result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	refs := map[string]string{}
	if err := json.Unmarshal(references, &refs); err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	if o.seed != 42 || o.runs != 0 {
		refs = map[string]string{}
	}
	b := &bench{exe: exe, o: o, work: work, refs: refs}
	var out []result
	for _, w := range names {
		out = append(out, b.measure(w))
	}
	return out, nil
}

// bench runs children for one invocation.
type bench struct {
	ctx  context.Context // the current workload's deadline
	exe  string
	o    options
	work string
	refs map[string]string
	// lastCold is the cache the last fig4-cold repetition wrote and
	// coldDigest its output, which fig4-warm must reproduce.
	lastCold, coldDigest string
}

// child is one finished child process.
type child struct {
	rep    report
	setupS float64 // exec to "ready"
	rssMB  float64 // peak resident set
	err    error
}

// spawn runs one child to completion.
func (b *bench) spawn(w string, extra ...string) child {
	args := append([]string{"-workload", w, "-seed", strconv.FormatUint(b.o.seed, 10),
		"-runs", strconv.Itoa(b.o.runs)}, extra...)
	cmd := exec.CommandContext(b.ctx, b.exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return child{err: err}
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return child{err: err}
	}
	var c child
	var lines []string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if len(lines) == 0 {
			c.setupS = time.Since(start).Seconds()
		}
		lines = append(lines, sc.Text())
	}
	werr := cmd.Wait()
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			c.rssMB = float64(ru.Maxrss) / 1024
		}
	}
	switch {
	case werr != nil:
		c.err = fmt.Errorf("%s child %v: %v", w, extra, werr)
	case len(lines) == 0 || lines[0] != "ready":
		c.err = fmt.Errorf("%s child %v: no ready line", w, extra)
	case len(lines) > 1:
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.rep); err != nil {
			c.err = fmt.Errorf("%s child %v: report: %v", w, extra, err)
		}
	}
	return c
}

// tally accumulates one workload's calls, failures and correctness.
type tally struct {
	attempted, failed int
	problems          []string
	digests           map[string]string // reference per digest kind
}

// account adds a child's calls; a child that crashed fails all of them.
func (t *tally) account(c child, calls int) bool {
	if c.err != nil {
		t.attempted += calls
		t.failed += calls
		t.problems = append(t.problems, c.err.Error())
		return false
	}
	t.attempted += c.rep.Attempted
	t.failed += c.rep.Failed
	t.problems = append(t.problems, c.rep.Errors...)
	t.problems = append(t.problems, c.rep.Checks...)
	return true
}

// agree checks that every output of this seed hashes alike: the first
// digest of a kind (or the committed reference) is the one all others
// must match.
func (t *tally) agree(kind, got, source string) {
	if got == "" {
		return
	}
	want, ok := t.digests[kind]
	if !ok {
		t.digests[kind] = got
		fmt.Fprintf(os.Stderr, "%s digest %s\n", kind, got)
		return
	}
	if got != want {
		t.problems = append(t.problems, fmt.Sprintf("%s: %s digest %s, want %s", source, kind, got, want))
	}
}

// measure runs one workload: its repetitions (or its traced pair) plus
// set-up probes, and reduces them to metrics.
func (b *bench) measure(w string) result {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	b.ctx = ctx
	t := &tally{digests: map[string]string{}}
	for _, kind := range []string{w, w + "/metrics"} {
		if ref, ok := b.refs[kind]; ok {
			t.digests[kind] = ref
		}
	}
	if _, ok := t.digests[w]; !ok && w == "fig4-warm" && b.coldDigest != "" {
		t.digests[w] = b.coldDigest
	}
	sz := sizesFor(b.o.runs)
	calls := 1
	dir := filepath.Join(b.work, w)
	if w == "fig4-warm" {
		calls = sz.warmLoops
		if b.lastCold != "" {
			dir = b.lastCold
		} else {
			fill := b.spawn("fig4-cold", "-dir", dir)
			if t.account(fill, 1) {
				t.agree(w, fill.rep.Digest, "cache fill")
			}
		}
	}
	repDir := func(i int) string {
		if w == "fig4-cold" {
			return filepath.Join(b.work, fmt.Sprintf("%s-%d", w, i))
		}
		return dir
	}
	res := result{Workload: w, Seed: b.o.seed, Trace: b.o.trace, Metrics: map[string]metric{}}
	var reps []child
	if b.o.trace == 1 {
		u := b.spawn(w, "-dir", repDir(0))
		if t.account(u, calls) {
			t.agree(w, u.rep.Digest, "untraced run")
			t.agree(w+"/metrics", u.rep.MetricsDigest, "untraced run")
		}
		tr := b.spawn(w, "-dir", dir, "-trace",
			"-spans", filepath.Join(b.o.workdir, "spans-"+w+".json"),
			"-stores", filepath.Join(b.work, w+"-trace"))
		if t.account(tr, 1) && u.err == nil {
			t.agree(w, tr.rep.Digest, "traced replay")
			t.agree(w+"/metrics", tr.rep.MetricsDigest, "traced replay")
			for _, m := range perLayer {
				if v, ok := tr.rep.Layers[m.name]; ok {
					res.Metrics[m.name] = metric{v, m.unit}
				}
			}
			perRun := func(r report) float64 { return r.WallS / float64(r.Runs) }
			res.Metrics["trace.overhead_pct"] = metric{100 * (perRun(tr.rep)/perRun(u.rep) - 1), "%"}
		}
	} else {
		start := time.Now()
		for i := 0; i < b.o.reps || time.Since(start).Seconds() < b.o.seconds; i++ {
			if b.ctx.Err() != nil {
				break
			}
			c := b.spawn(w, "-dir", repDir(i))
			if !t.account(c, calls) {
				continue
			}
			fmt.Fprintf(os.Stderr, "%s repetition %d: %d runs in %.3f s, %.3f s CPU\n", w, i, c.rep.Runs, c.rep.WallS, c.rep.CPUS)
			t.agree(w, c.rep.Digest, fmt.Sprintf("repetition %d", i))
			t.agree(w+"/metrics", c.rep.MetricsDigest, fmt.Sprintf("repetition %d", i))
			reps = append(reps, c)
			if w == "fig4-cold" {
				// Keep only the newest cold cache: fig4-warm reads it.
				if b.lastCold != "" {
					os.RemoveAll(b.lastCold)
				}
				b.lastCold, b.coldDigest = repDir(i), c.rep.Digest
			}
		}
		var setups []float64
		for _, c := range reps {
			setups = append(setups, c.setupS)
		}
		for i := 0; i < setupProbes; i++ {
			probeDir := dir
			if w == "fig4-cold" {
				probeDir = filepath.Join(b.work, fmt.Sprintf("%s-setup-%d", w, i))
			}
			if c := b.spawn(w, "-dir", probeDir, "-setup-only"); c.err == nil {
				setups = append(setups, c.setupS)
			} else {
				t.account(c, 1)
			}
		}
		if len(reps) > 0 {
			res.Metrics = endToEndMetrics(reps, setups)
		}
	}
	for _, p := range t.problems {
		fmt.Fprintf(os.Stderr, "%s: %s\n", w, p)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = len(t.problems) == 0 && (b.o.trace == 1 || len(reps) > 0)
	return res
}

// endToEndMetrics reduces the repetitions to per-metric medians.
func endToEndMetrics(reps []child, setups []float64) map[string]metric {
	per := func(f func(c child) float64) float64 {
		xs := make([]float64, len(reps))
		for i, c := range reps {
			xs[i] = f(c)
		}
		return median(xs)
	}
	runs := func(c child) float64 { return float64(c.rep.Runs) }
	v := map[string]float64{
		"runs_per_s":       per(func(c child) float64 { return runs(c) / c.rep.WallS }),
		"cpu_ms_per_run":   per(func(c child) float64 { return 1000 * c.rep.CPUS / runs(c) }),
		"setup_s":          median(setups),
		"allocs_per_run":   per(func(c child) float64 { return float64(c.rep.Mallocs) / runs(c) }),
		"alloc_kb_per_run": per(func(c child) float64 { return float64(c.rep.AllocBytes) / 1024 / runs(c) }),
		"peak_rss_mb":      per(func(c child) float64 { return c.rssMB }),
	}
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
