package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// rule is how one metric is judged: its direction and, for an end-to-end
// metric, the share of the parent's median it may worsen by.
type rule struct {
	higher bool
	bound  float64 // 0: informational per-layer metric
}

func readRules(path string) (map[string]rule, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	rules := map[string]rule{}
	var order []string
	for _, m := range bf.EndToEnd {
		rules[m.Name] = rule{higher: m.Better == "higher", bound: m.Bound}
		order = append(order, m.Name)
	}
	for _, m := range bf.PerLayer {
		rules[m.Name] = rule{higher: m.Better == "higher"}
		order = append(order, m.Name)
	}
	return rules, order, nil
}

// readResults loads an -out file: one result per line.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareMain applies the pairing rule to every (workload, metric) pair
// of a parent and a child -out file: the i-th parent run of a workload is
// paired with its i-th child run. It exits 1 when any bound is broken.
func compareMain(args []string, benchmarkPath string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare parent.jsonl child.jsonl")
		return 2
	}
	rules, order, err := readRules(benchmarkPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var sides [2]map[string]map[string][]float64 // workload → metric → runs
	var workloads []string
	for i, path := range args {
		rs, err := readResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		sides[i] = map[string]map[string][]float64{}
		for _, r := range rs {
			if sides[i][r.Workload] == nil {
				sides[i][r.Workload] = map[string][]float64{}
				if i == 0 {
					workloads = append(workloads, r.Workload)
				}
			}
			for name, m := range r.Metrics {
				sides[i][r.Workload][name] = append(sides[i][r.Workload][name], m.Value)
			}
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1 q3]\tchild median [q1 q3]\twins\tchange\tbound\tverdict")
	broken := false
	for _, wl := range workloads {
		for _, name := range order {
			p, c := sides[0][wl][name], sides[1][wl][name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := judge(p, c, rules[name])
			broken = broken || v.verdict == "regression"
			bound := "-"
			if rules[name].bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*rules[name].bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g %.4g]\t%.4g [%.4g %.4g]\t%d/%d\t%+.1f%%\t%s\t%s\n",
				wl, name, v.p[1], v.p[0], v.p[2], v.c[1], v.c[0], v.c[2], v.wins, v.pairs, 100*v.change, bound, v.verdict)
		}
	}
	tw.Flush()
	if broken {
		return 1
	}
	return 0
}

// judgement is the pairing rule's outcome for one metric on one workload.
type judgement struct {
	p, c        [3]float64 // q1, median, q3
	wins, pairs int
	change      float64 // child median vs parent median, signed so positive is worse
	verdict     string
}

// judge pairs runs in order. A gain needs at least ten pairs, the child
// winning nine tenths of them (ties count for neither), and the medians
// differing by more than the parent's quartile spread. A regression is a child median worse
// than the parent's by more than the bound. When the parent's own spread
// exceeds the bound the metric is unresolved, unless every child run is
// better than every parent run.
func judge(p, c []float64, r rule) judgement {
	better := func(a, b float64) bool {
		if r.higher {
			return a > b
		}
		return a < b
	}
	j := judgement{p: quartiles(p), c: quartiles(c), pairs: min(len(p), len(c))}
	for i := 0; i < j.pairs; i++ {
		if better(c[i], p[i]) {
			j.wins++
		}
	}
	pm := j.p[1]
	j.change = (j.c[1] - pm) / math.Abs(pm)
	if r.higher {
		j.change = -j.change
	}
	spread := (j.p[2] - j.p[0]) / math.Abs(pm)
	allBetter := true
	for _, x := range c {
		for _, y := range p {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case r.bound == 0:
		j.verdict = "-"
	case spread > r.bound && !allBetter:
		j.verdict = "unresolved"
	case j.change > r.bound:
		j.verdict = "regression"
	default:
		j.verdict = "ok"
	}
	if j.verdict != "unresolved" && j.verdict != "regression" && j.pairs >= 10 &&
		10*j.wins >= 9*j.pairs && math.Abs(j.c[1]-pm) > j.p[2]-j.p[0] && better(j.c[1], pm) {
		j.verdict = "gain"
	}
	return j
}

// quartiles returns q1, median and q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		m := i * (n + 1)
		k := max(1, min(m/4, n-1))
		delta := m - 4*k
		q[i-1] = (s[k-1]*float64(4-delta) + s[k]*float64(delta)) / 4
	}
	return q
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
