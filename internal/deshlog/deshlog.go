// Package deshlog reproduces the failure-analysis pipeline the paper
// builds on (Desh): mining recurring phrase chains from HPC system logs,
// where the time between a chain's first phrase and its terminal failure
// phrase is the prediction lead time. The paper ran this over six months
// of logs from three production systems to obtain the lead-time
// distribution of its Fig. 2a; production logs are not redistributable,
// so this package also ships a generator that synthesizes logs with
// planted chains, letting the full log → chain → lead-time-distribution
// path run end to end.
package deshlog

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"pckpt/internal/failure"
	"pckpt/internal/rng"
)

// Entry is one log line.
type Entry struct {
	// Time is seconds since the log's start.
	Time float64
	// Node is the originating node index.
	Node int
	// Component is the subsystem that emitted the line.
	Component string
	// Phrase is the normalised message text (Desh operates on
	// deduplicated phrase classes, not raw messages).
	Phrase string
}

// Format renders the entry as a single log line.
func (e Entry) Format() string {
	return fmt.Sprintf("t=%.3f node=%d comp=%s msg=%s", e.Time, e.Node, e.Component, e.Phrase)
}

// ParseEntry parses a line produced by Format.
func ParseEntry(line string) (Entry, error) {
	var e Entry
	rest := strings.TrimSpace(line)
	fields := []struct {
		key string
		set func(string) error
	}{
		{"t=", func(s string) error {
			v, err := strconv.ParseFloat(s, 64)
			e.Time = v
			return err
		}},
		{"node=", func(s string) error {
			v, err := strconv.Atoi(s)
			e.Node = v
			return err
		}},
		{"comp=", func(s string) error {
			e.Component = s
			return nil
		}},
	}
	for _, f := range fields {
		if !strings.HasPrefix(rest, f.key) {
			return Entry{}, fmt.Errorf("deshlog: malformed line %q: missing %q", line, f.key)
		}
		rest = rest[len(f.key):]
		val, tail, ok := strings.Cut(rest, " ")
		if !ok {
			return Entry{}, fmt.Errorf("deshlog: malformed line %q: truncated after %q", line, f.key)
		}
		if err := f.set(val); err != nil {
			return Entry{}, fmt.Errorf("deshlog: malformed line %q: %v", line, err)
		}
		rest = tail
	}
	if !strings.HasPrefix(rest, "msg=") {
		return Entry{}, fmt.Errorf("deshlog: malformed line %q: missing msg", line)
	}
	e.Phrase = rest[len("msg="):]
	return e, nil
}

// ChainTemplate is one recurring failure chain: an ordered phrase
// sequence whose last phrase is the failure itself.
type ChainTemplate struct {
	// SeqID is the failure-sequence number (1–10, matching Fig. 2a).
	SeqID int
	// Component is the emitting subsystem.
	Component string
	// Phrases is the ordered chain; the final phrase is the failure.
	Phrases []string
}

// Templates returns the ten chain templates used by the generator and the
// miner, styled after the hardware/software failure precursors Desh
// reports on Cray system logs.
func Templates() []ChainTemplate {
	return []ChainTemplate{
		{1, "hwerr", []string{"MCE correctable burst on DIMM", "ECC threshold exceeded", "memory page retired", "uncorrectable ECC error: kernel panic"}},
		{2, "lustre", []string{"ost write timeout", "client evicted by lock callback", "lustre connection lost", "node fenced by health monitor"}},
		{3, "netwatch", []string{"HSN link degraded", "lane retrain storm", "routing table resweep", "aries nic quiesce failed", "node declared dead by HSN"}},
		{4, "power", []string{"VRM overcurrent warning", "cabinet power sag", "node power fault"}},
		{5, "kernel", []string{"soft lockup detected", "hung task panic timer armed", "kernel oops: scheduling while atomic"}},
		{6, "gpfs", []string{"mmfsd long waiter", "quorum heartbeat missed", "filesystem unmounted: node expelled"}},
		{7, "thermal", []string{"core temperature above threshold", "fan controller fallback", "thermal trip assertion"}},
		{8, "pcie", []string{"pcie correctable error flood", "device link retrain", "gpu fell off the bus"}},
		{9, "moab", []string{"healthcheck script timeout", "node marked admindown"}},
		{10, "bmc", []string{"ipmi watchdog pretimeout", "bmc controller reset", "node watchdog hard reset"}},
	}
}

// noisePhrases are benign lines interleaved between chains.
var noisePhrases = []string{
	"heartbeat ok",
	"job launch accepted",
	"lnet router pings nominal",
	"periodic scrub complete",
	"sensor poll ok",
	"nfs automount refresh",
}

// Planted is the ground truth for one generated failure chain.
type Planted struct {
	SeqID    int
	Node     int
	FailTime float64
	Lead     float64
}

// GenConfig parameterises the synthetic log.
type GenConfig struct {
	// Nodes is the cluster size.
	Nodes int
	// Duration is the log span in seconds.
	Duration float64
	// Failures is how many failure chains to plant.
	Failures int
	// NoisePerChain is the number of benign lines per planted chain.
	NoisePerChain int
	// PartialChains plants this many chain prefixes that never complete
	// (precursors that recovered), exercising the miner's robustness.
	PartialChains int
	// Leads samples each chain's lead time; nil selects the default
	// Fig. 2a model.
	Leads *failure.LeadTimeModel
}

// ConfigError is a GenConfig validation failure: the offending field
// and its value.
type ConfigError struct {
	Field string
	Value any
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("deshlog: invalid generator config: %s %v", e.Field, e.Value)
}

// Validate reports the first invalid field as a *ConfigError, or nil. A
// NaN or infinite duration is invalid, as are negative counts.
func (c GenConfig) Validate() error {
	for _, f := range []struct {
		name string
		ok   bool
		v    any
	}{
		{"Nodes", c.Nodes > 0, c.Nodes},
		{"Duration", c.Duration > 0 && !math.IsInf(c.Duration, 1), c.Duration},
		{"Failures", c.Failures >= 0, c.Failures},
		{"NoisePerChain", c.NoisePerChain >= 0, c.NoisePerChain},
		{"PartialChains", c.PartialChains >= 0, c.PartialChains},
	} {
		if !f.ok {
			return &ConfigError{Field: f.name, Value: f.v}
		}
	}
	return nil
}

// Generate synthesizes a log and returns its entries sorted by time plus
// the planted ground truth. It panics with Validate's error on an invalid
// configuration.
func Generate(cfg GenConfig, src *rng.Source) ([]Entry, []Planted) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	leads := cfg.Leads
	if leads == nil {
		leads = failure.DefaultLeadTimes()
	}
	templates := Templates()
	weights := leads.Sequences()
	var entries []Entry
	var planted []Planted
	for i := 0; i < cfg.Failures; i++ {
		lead, seqID := leads.Sample(src)
		tmpl := templates[seqID-1]
		node := src.Intn(cfg.Nodes)
		// Leave room for the full chain inside the log window.
		failAt := src.Uniform(lead, cfg.Duration)
		entries = append(entries, chainEntries(tmpl, node, failAt, lead)...)
		planted = append(planted, Planted{SeqID: seqID, Node: node, FailTime: failAt, Lead: lead})
		for j := 0; j < cfg.NoisePerChain; j++ {
			entries = append(entries, Entry{
				Time:      src.Uniform(0, cfg.Duration),
				Node:      src.Intn(cfg.Nodes),
				Component: "sys",
				Phrase:    noisePhrases[src.Intn(len(noisePhrases))],
			})
		}
	}
	for i := 0; i < cfg.PartialChains; i++ {
		// A prefix of a random chain that never reaches the failure.
		tmpl := templates[weights[src.Intn(len(weights))].ID-1]
		cut := 1 + src.Intn(len(tmpl.Phrases)-1)
		node := src.Intn(cfg.Nodes)
		start := src.Uniform(0, cfg.Duration*0.9)
		span := src.Uniform(1, 60)
		for k := 0; k < cut; k++ {
			entries = append(entries, Entry{
				Time:      start + span*float64(k)/float64(len(tmpl.Phrases)-1),
				Node:      node,
				Component: tmpl.Component,
				Phrase:    tmpl.Phrases[k],
			})
		}
	}
	return byTime(entries), planted
}

// byTime returns a copy of entries ordered by time, stably: entries at
// equal times keep their order, and a NaN time sorts first. It sorts
// (time, index) keys and gathers the entries once, where sort.SliceStable
// would move whole entries through its reflection swapper.
func byTime(entries []Entry) []Entry {
	type key struct {
		t float64
		i int
	}
	keys := make([]key, len(entries))
	for i, e := range entries {
		keys[i] = key{e.Time, i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	out := make([]Entry, len(entries))
	for k, key := range keys {
		out[k] = entries[key.i]
	}
	return out
}

// chainEntries lays a template's phrases across [failAt−lead, failAt].
func chainEntries(tmpl ChainTemplate, node int, failAt, lead float64) []Entry {
	n := len(tmpl.Phrases)
	out := make([]Entry, n)
	for i, ph := range tmpl.Phrases {
		frac := float64(i) / float64(n-1)
		out[i] = Entry{
			Time:      failAt - lead*(1-frac),
			Node:      node,
			Component: tmpl.Component,
			Phrase:    ph,
		}
	}
	return out
}
