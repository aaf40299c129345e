package deshlog

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"pckpt/internal/failure"
)

// Chain is one mined failure chain instance.
type Chain struct {
	// SeqID identifies the matched template.
	SeqID int
	// Node is where the chain unfolded.
	Node int
	// Start and End are the first-phrase and failure-phrase times; the
	// lead time is their difference (the Desh definition).
	Start, End float64
}

// Lead returns the chain's prediction lead time in seconds.
func (c Chain) Lead() float64 { return c.End - c.Start }

// Mine scans entries (any order) for complete chain template matches on a
// per-node basis, the Desh approach: phrases must appear in template
// order on the same node; an interrupted prefix that re-sees the first
// phrase restarts its window; prefixes that never complete are dropped.
func Mine(entries []Entry) []Chain {
	sorted := byTime(entries)

	templates := Templates()
	// phrase → (template index, position) lookup. Phrases are unique
	// across templates by construction; assert to catch edits.
	type pos struct{ tmpl, idx int }
	lookup := make(map[string]pos)
	for ti, t := range templates {
		for pi, ph := range t.Phrases {
			if _, dup := lookup[ph]; dup {
				panic(fmt.Sprintf("deshlog: duplicate phrase %q across templates", ph))
			}
			lookup[ph] = pos{ti, pi}
		}
	}

	type progress struct {
		next  int
		start float64
	}
	// state[node][template] → progress
	state := make(map[int][]progress)
	var out []Chain
	for _, e := range sorted {
		p, ok := lookup[e.Phrase]
		if !ok {
			continue // noise
		}
		st := state[e.Node]
		if st == nil {
			st = make([]progress, len(templates))
			state[e.Node] = st
		}
		pr := &st[p.tmpl]
		switch {
		case p.idx == 0:
			// (Re-)open a window at the first phrase.
			pr.next = 1
			pr.start = e.Time
		case p.idx == pr.next:
			pr.next++
		default:
			// Out-of-order phrase: the window is broken.
			pr.next = 0
		}
		if pr.next == len(templates[p.tmpl].Phrases) {
			out = append(out, Chain{SeqID: templates[p.tmpl].SeqID, Node: e.Node, Start: pr.start, End: e.Time})
			pr.next = 0
		}
	}
	return out
}

// SeqStats summarises one sequence's mined lead times: the per-boxplot
// numbers of the paper's Fig. 2a.
type SeqStats struct {
	SeqID         int
	Count         int
	Mean          float64
	Min, Max      float64
	P25, P50, P75 float64
}

// Stats aggregates mined chains per sequence, ordered by SeqID.
func Stats(chains []Chain) []SeqStats {
	bySeq := make(map[int][]float64)
	for _, c := range chains {
		bySeq[c.SeqID] = append(bySeq[c.SeqID], c.Lead())
	}
	ids := make([]int, 0, len(bySeq))
	for id := range bySeq {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]SeqStats, 0, len(ids))
	for _, id := range ids {
		leads := bySeq[id]
		sort.Float64s(leads)
		s := SeqStats{SeqID: id, Count: len(leads), Min: leads[0], Max: leads[len(leads)-1]}
		var sum float64
		for _, l := range leads {
			sum += l
		}
		s.Mean = sum / float64(len(leads))
		s.P25 = quantile(leads, 0.25)
		s.P50 = quantile(leads, 0.50)
		s.P75 = quantile(leads, 0.75)
		out = append(out, s)
	}
	return out
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	f := q * float64(len(xs)-1)
	i := int(f)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := f - float64(i)
	return xs[i]*(1-frac) + xs[i+1]*frac
}

// ToLeadModel converts mined chains into a lead-time model usable by the
// failure package — closing the loop from raw logs to the simulator's
// prediction inputs. Sequences with fewer than two samples get a floor CV
// so the log-normal stays well-defined.
func ToLeadModel(chains []Chain) (*failure.LeadTimeModel, error) {
	st := Stats(chains)
	if len(st) == 0 {
		return nil, fmt.Errorf("deshlog: no chains to build a model from")
	}
	seqs := make([]failure.Sequence, 0, len(st))
	bySeq := make(map[int][]float64)
	for _, c := range chains {
		bySeq[c.SeqID] = append(bySeq[c.SeqID], c.Lead())
	}
	for _, s := range st {
		leads := bySeq[s.SeqID]
		cv := 0.05
		if len(leads) > 1 {
			var ss float64
			for _, l := range leads {
				d := l - s.Mean
				ss += d * d
			}
			std := math.Sqrt(ss / float64(len(leads)-1))
			if got := std / s.Mean; got > cv {
				cv = got
			}
		}
		if s.Mean <= 0 {
			return nil, fmt.Errorf("deshlog: sequence %d has non-positive mean lead", s.SeqID)
		}
		seqs = append(seqs, failure.Sequence{ID: s.SeqID, Weight: float64(s.Count), MeanLeadSec: s.Mean, CV: cv})
	}
	return failure.NewLeadTimeModel(seqs), nil
}

// RenderStats renders Fig. 2a-style per-sequence statistics as a table.
func RenderStats(st []SeqStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-6s %-10s %-8s %-8s %-8s %-8s %-8s\n", "seq", "count", "mean(s)", "min", "p25", "p50", "p75", "max")
	for _, s := range st {
		fmt.Fprintf(&b, "%-4d %-6d %-10.2f %-8.2f %-8.2f %-8.2f %-8.2f %-8.2f\n",
			s.SeqID, s.Count, s.Mean, s.Min, s.P25, s.P50, s.P75, s.Max)
	}
	return b.String()
}
