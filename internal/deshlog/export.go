package deshlog

import (
	"sort"

	"pckpt/internal/failure"
	"pckpt/internal/scenario"
)

// ExportTrace converts mined failure chains into a replayable scenario
// trace: each chain becomes one predicted failure at its terminal phrase
// time with the chain's lead as the announcement margin — closing the
// loop from raw logs all the way to a simulation input both tiers can
// replay deterministically. nodes is the span the log covered and
// horizonSeconds its window length (replay wraps modulo it); every chain
// must fall inside both, which Trace.Validate checks with the rest of the
// trace. No command exports a mined trace yet;
// TestExportTraceRoundTrip drives the whole loop through it, checking
// that the replay carries exactly the mined failures and lead mixture.
func ExportTrace(name string, chains []Chain, nodes int, horizonSeconds float64) (*scenario.Trace, error) {
	events := make([]failure.ReplayEvent, 0, len(chains))
	for _, c := range chains {
		events = append(events, failure.ReplayEvent{T: c.End, Node: c.Node, Lead: c.Lead(), Seq: c.SeqID})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].T < events[j].T })
	t := &scenario.Trace{Version: 1, Replay: failure.Replay{
		Name:           name,
		Nodes:          nodes,
		HorizonSeconds: horizonSeconds,
		Events:         events,
	}}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
