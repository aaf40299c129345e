package platform

import (
	"fmt"
	"strconv"
	"strings"
)

// CanonicalString renders the fully-defaulted configuration as a stable,
// newline-delimited key text. Two configurations that simulate
// identically render identically (WithDefaults is applied first, so a
// zero field and its explicit default agree), and every field that can
// change a simulation outcome is included — the rendering is the
// platform component of internal/runcache's content address. Floats are
// formatted shortest-round-trip, so distinct float64 values never
// collide. The layout is versioned: any change to the field set or
// formatting must bump the header line, which safely invalidates every
// previously stored cache entry.
func (c Config) CanonicalString() string {
	c = c.WithDefaults()
	var b strings.Builder
	io := c.IO.Config()
	b.WriteString("platform/v5\n")
	fmt.Fprintf(&b, "app=%s|%d|%s|%s\n", c.App.Name, c.App.Nodes, cf(c.App.TotalCkptGB), cf(c.App.ComputeHours))
	fmt.Fprintf(&b, "system=%s|%s|%s|%d\n", c.System.Name, cf(c.System.Shape), cf(c.System.ScaleHours), c.System.Nodes)
	fmt.Fprintf(&b, "spares=%d\n", c.SpareNodes)
	fmt.Fprintf(&b, "io=%s|%s|%s|%s|%d|%d|%s|%d\n",
		cf(io.BBWriteGBs), cf(io.BBReadGBs), cf(io.NodePFSPeakGBs), cf(io.AggregatePFSCeilingGBs),
		io.OptimalTasks, io.MaxTasks, cf(io.HalfSaturationGB), io.DrainConcurrency)
	fmt.Fprintf(&b, "lm=%s|%s|%s|%s\n", cf(c.LM.Alpha), cf(c.LM.RAMCapGB), cf(c.LM.NetworkGBs), cf(c.LM.Dilation))
	b.WriteString("leads=")
	for i, s := range c.Leads.Sequences() {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%d:%s:%s:%s", s.ID, cf(s.Weight), cf(s.MeanLeadSec), cf(s.CV))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "leadscale=%s\n", cf(c.LeadScale))
	fmt.Fprintf(&b, "predictor=%s|%s|%t\n", cf(c.FNRate), cf(c.FPRate), c.PerfectPredictor)
	fmt.Fprintf(&b, "oci-refresh=%s\n", cf(c.OCIRefreshSeconds))
	fmt.Fprintf(&b, "accuracy-aware-sigma=%t\n", c.AccuracyAwareSigma)
	fmt.Fprintf(&b, "faults=%s|%s|%s|%s|%d|%s|%s\n",
		cf(c.Faults.BBWriteFailProb), cf(c.Faults.PFSWriteFailProb), cf(c.Faults.CorruptProb),
		cf(c.Faults.RestartFailProb), c.Faults.RestartRetries, cf(c.Faults.RestartBackoffSeconds),
		cf(c.Faults.CascadeProb))
	// A replayed trace is identified by its content digest: a replay run
	// can never collide with a parametric run, nor with a replay of any
	// other trace (the system/leads lines above alone would not
	// guarantee that — an explicit System override makes them equal).
	if c.Replay == nil {
		b.WriteString("replay=none\n")
	} else {
		fmt.Fprintf(&b, "replay=%s\n", c.Replay.Digest())
	}
	return b.String()
}

// cf formats a float64 with the smallest digit count that round-trips.
func cf(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
