// Command leadtimes exercises the Desh-style failure-analysis pipeline:
// generate a synthetic HPC system log with planted failure chains, mine
// the chains back out, and print the per-sequence lead-time statistics of
// the paper's Fig. 2a. With -emit the raw log lines stream to stdout
// instead (pipe to a file to inspect, then mine with -parse).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"

	"pckpt/internal/deshlog"
	"pckpt/internal/rng"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 1024, "cluster size")
		months   = flag.Float64("months", 6, "log span in months (the paper mined six)")
		failures = flag.Int("failures", 5000, "failure chains to plant")
		noise    = flag.Int("noise", 10, "benign lines per chain")
		partial  = flag.Int("partial", 500, "chain prefixes that never complete")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		emit     = flag.Bool("emit", false, "print raw log lines instead of mining")
		parse    = flag.String("parse", "", "mine an existing log file instead of generating")
	)
	flag.Parse()

	var entries []deshlog.Entry
	if *parse != "" {
		f, err := os.Open(*parse)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			e, err := deshlog.ParseEntry(sc.Text())
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			entries = append(entries, e)
		}
		if err := sc.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		gen := deshlog.GenConfig{
			Nodes:         *nodes,
			Duration:      *months * 30 * 24 * 3600,
			Failures:      *failures,
			NoisePerChain: *noise,
			PartialChains: *partial,
		}
		if err := gen.Validate(); err != nil {
			msg := err.Error()
			var ce *deshlog.ConfigError
			if errors.As(err, &ce) {
				// Name the flag that set the offending field.
				name := map[string]string{"Nodes": "nodes", "Duration": "months", "Failures": "failures",
					"NoisePerChain": "noise", "PartialChains": "partial"}[ce.Field]
				msg = fmt.Sprintf("-%s %s: %v", name, flag.Lookup(name).Value, err)
			}
			fmt.Fprintln(os.Stderr, "leadtimes:", msg)
			os.Exit(2)
		}
		var planted []deshlog.Planted
		entries, planted = deshlog.Generate(gen, rng.New(*seed))
		if !*emit {
			fmt.Printf("generated %d log entries with %d planted chains\n\n", len(entries), len(planted))
		}
	}

	if *emit {
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		for _, e := range entries {
			fmt.Fprintln(w, e.Format())
		}
		return
	}

	chains := deshlog.Mine(entries)
	st := deshlog.Stats(chains)
	fmt.Printf("mined %d failure chains\n\n", len(chains))
	fmt.Println(deshlog.RenderStats(st))
	if model, err := deshlog.ToLeadModel(chains); err == nil {
		fmt.Printf("reconstructed lead-time model: mean %.2f s, P(lead ≥ 41 s) = %.3f\n",
			model.Mean(), model.TailProb(41))
	}
}
