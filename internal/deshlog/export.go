package deshlog

import (
	"fmt"
	"math"
	"sort"

	"pckpt/internal/scenario"
)

// ExportTrace converts mined failure chains into a replayable scenario
// trace: each chain becomes one predicted failure at its terminal phrase
// time with the chain's lead as the announcement margin — closing the
// loop from raw logs all the way to a simulation input both tiers can
// replay deterministically. nodes is the span the log covered and
// horizonSeconds its window length (replay wraps modulo it); every chain
// must fall inside both. No command exports a mined trace yet;
// TestExportTraceRoundTrip drives the whole loop through it, checking
// that the replay carries exactly the mined failures and lead mixture.
func ExportTrace(name string, chains []Chain, nodes int, horizonSeconds float64) (*scenario.Trace, error) {
	if len(chains) == 0 {
		return nil, fmt.Errorf("deshlog: no chains to export")
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("deshlog: non-positive node span")
	}
	if !(horizonSeconds > 0) || math.IsInf(horizonSeconds, 0) {
		return nil, fmt.Errorf("deshlog: horizon %v not a positive finite duration", horizonSeconds)
	}
	events := make([]scenario.TraceEvent, 0, len(chains))
	for _, c := range chains {
		if c.Node < 0 || c.Node >= nodes {
			return nil, fmt.Errorf("deshlog: chain on node %d outside the %d-node span", c.Node, nodes)
		}
		if c.End > horizonSeconds {
			return nil, fmt.Errorf("deshlog: chain failing at t=%v beyond the %vs horizon", c.End, horizonSeconds)
		}
		lead := c.Lead()
		if lead < 0 {
			return nil, fmt.Errorf("deshlog: chain with negative lead %v", lead)
		}
		events = append(events, scenario.TraceEvent{T: c.End, Node: c.Node, Lead: lead, Seq: c.SeqID})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].T < events[j].T })
	t := &scenario.Trace{
		Version:        1,
		Name:           name,
		Nodes:          nodes,
		HorizonSeconds: horizonSeconds,
		Events:         events,
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
