package platform

import "strconv"

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
func (c Config) CanonicalString() string { return string(c.AppendCanonical(nil)) }

// AppendCanonical appends the CanonicalString text to dst. With room in
// dst it allocates nothing, unless the configuration replays a trace
// (the trace's digest is rendered then).
func (c Config) AppendCanonical(dst []byte) []byte {
	c = c.WithDefaults()
	io := c.IO.Config()
	dst = append(dst, "platform/v6\napp="...)
	dst = append(dst, c.App.Name...)
	dst = appendInt(dst, '|', c.App.Nodes)
	dst = appendFloat(dst, '|', c.App.TotalCkptGB)
	dst = appendFloat(dst, '|', c.App.ComputeHours)
	dst = append(dst, "\nsystem="...)
	dst = append(dst, c.System.Name...)
	dst = appendFloat(dst, '|', c.System.Shape)
	dst = appendFloat(dst, '|', c.System.ScaleHours)
	dst = appendInt(dst, '|', c.System.Nodes)
	dst = append(dst, "\nspares="...)
	dst = strconv.AppendInt(dst, int64(c.SpareNodes), 10)
	dst = append(dst, "\nio="...)
	dst = strconv.AppendFloat(dst, io.BBWriteGBs, 'g', -1, 64)
	dst = appendFloat(dst, '|', io.BBReadGBs)
	dst = appendFloat(dst, '|', io.NodePFSPeakGBs)
	dst = appendFloat(dst, '|', io.AggregatePFSCeilingGBs)
	dst = appendInt(dst, '|', io.OptimalTasks)
	dst = appendInt(dst, '|', io.MaxTasks)
	dst = appendFloat(dst, '|', io.HalfSaturationGB)
	dst = appendInt(dst, '|', io.DrainConcurrency)
	dst = append(dst, "\nlm="...)
	dst = strconv.AppendFloat(dst, c.LM.Alpha, 'g', -1, 64)
	dst = appendFloat(dst, '|', c.LM.RAMCapGB)
	dst = appendFloat(dst, '|', c.LM.NetworkGBs)
	dst = appendFloat(dst, '|', c.LM.Dilation)
	dst = append(dst, "\nleads="...)
	for i, s := range c.Leads.Sequences() {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = strconv.AppendInt(dst, int64(s.ID), 10)
		dst = appendFloat(dst, ':', s.Weight)
		dst = appendFloat(dst, ':', s.MeanLeadSec)
		dst = appendFloat(dst, ':', s.CV)
	}
	dst = append(dst, "\nleadscale="...)
	dst = strconv.AppendFloat(dst, c.LeadScale, 'g', -1, 64)
	dst = append(dst, "\npredictor="...)
	dst = strconv.AppendFloat(dst, c.FNRate, 'g', -1, 64)
	dst = appendFloat(dst, '|', c.FPRate)
	dst = append(dst, '|')
	dst = strconv.AppendBool(dst, c.PerfectPredictor)
	dst = append(dst, "\naccuracy-aware-sigma="...)
	dst = strconv.AppendBool(dst, c.AccuracyAwareSigma)
	f := c.Faults
	dst = append(dst, "\nfaults="...)
	dst = strconv.AppendFloat(dst, f.BBWriteFailProb, 'g', -1, 64)
	dst = appendFloat(dst, '|', f.PFSWriteFailProb)
	dst = appendFloat(dst, '|', f.CorruptProb)
	dst = appendFloat(dst, '|', f.RestartFailProb)
	dst = appendInt(dst, '|', f.RestartRetries)
	dst = appendFloat(dst, '|', f.RestartBackoffSeconds)
	dst = appendFloat(dst, '|', f.CascadeProb)
	// A replayed trace is identified by its content digest: a replay run
	// can never collide with a parametric run, nor with a replay of any
	// other trace (the system/leads lines above alone would not
	// guarantee that — an explicit System override makes them equal).
	dst = append(dst, "\nreplay="...)
	if c.Replay == nil {
		dst = append(dst, "none"...)
	} else {
		dst = append(dst, c.Replay.Digest()...)
	}
	return append(dst, '\n')
}

// appendFloat appends sep and x with the smallest digit count that
// round-trips.
func appendFloat(dst []byte, sep byte, x float64) []byte {
	return strconv.AppendFloat(append(dst, sep), x, 'g', -1, 64)
}

// appendInt appends sep and n in decimal.
func appendInt(dst []byte, sep byte, n int) []byte {
	return strconv.AppendInt(append(dst, sep), int64(n), 10)
}
