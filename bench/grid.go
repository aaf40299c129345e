package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"pckpt/internal/experiments"
	"pckpt/internal/failure"
	"pckpt/internal/machine"
	"pckpt/internal/platform"
	"pckpt/internal/policy"
	"pckpt/internal/runcache"
	"pckpt/internal/workload"
)

// cell is one configuration of a lead-variability sweep (Figs. 4 and 7).
// The grid, labels and seeds mirror internal/experiments exactly, so a
// traced replay simulates the same seeds and Puts under the same cache
// keys the experiment itself resolves; the replay's resolve step would
// miss (and the run be marked incorrect) if the two ever drifted apart.
type cell struct {
	label string
	model policy.ID
	plat  platform.Config
}

// leadScales is the Fig. 4/7 variability axis.
var leadScales = []float64{0.5, 0.7, 0.9, 1.0, 1.1, 1.3, 1.5}

// sweepApps are the applications Figs. 4 and 7 simulate by default.
var sweepApps = []string{"CHIMERA", "XGC", "POP"}

// newCell builds one configuration on OLCF Titan at the default
// false-negative rate, labelled the way experiments.modelSet labels it.
func newCell(appName string, m policy.ID, scale float64) cell {
	app, err := workload.ByName(appName)
	if err != nil {
		panic(err)
	}
	fn := failure.DefaultFNRate
	return cell{
		label: fmt.Sprintf("%s|%s|%s|ls=%.3f|fn=%.3f", app.Name, failure.Titan.Name, m, scale, fn),
		model: m,
		plat:  platform.Config{App: app, System: failure.Titan, LeadScale: scale, FNRate: fn},
	}
}

// leadGrid enumerates a lead-variability figure: per application, model
// B once at scale 1, then every scale × model.
func leadGrid(models ...policy.ID) []cell {
	var out []cell
	for _, app := range sweepApps {
		out = append(out, newCell(app, policy.B, 1))
		for _, s := range leadScales {
			for _, m := range models {
				out = append(out, newCell(app, m, s))
			}
		}
	}
	return out
}

// gridFor returns the configuration grid an experiment workload sweeps.
func gridFor(exp string) []cell {
	if exp == "fig7" {
		return leadGrid(policy.P1, policy.P2)
	}
	return leadGrid(policy.M1, policy.M2)
}

// configSeed is experiments' per-configuration seed derivation (FNV-1a
// over the label, offset by the base seed).
func configSeed(base uint64, label string) uint64 {
	h := base ^ 0xcbf29ce484222325
	for _, c := range label {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// key is the cache key experiments.Run uses for c.
func (c cell) key(exp string, runs int, seed uint64) runcache.Key {
	return runcache.Key{
		Experiment:  exp,
		Label:       c.label,
		Policy:      c.model.String(),
		Platform:    c.plat.CanonicalString(),
		Runs:        runs,
		Seed:        seed,
		Fingerprint: runcache.Fingerprint(),
	}
}

// resultDigest hashes an experiment's full-precision output: the rendered
// text plus every value, shortest-round-trip formatted, in key order.
func resultDigest(r experiments.Result) string {
	h := sha256.New()
	h.Write([]byte(r.Text))
	keys := make([]string, 0, len(r.Values))
	for k := range r.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "\n%s=%s", k, strconv.FormatFloat(r.Values[k], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// machineDigest hashes a machine sweep's results in full (%+v).
func machineDigest(rs []machine.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", rs)
	return hex.EncodeToString(h.Sum(nil))
}
