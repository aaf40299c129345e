// Package stats defines the overhead accounting shared by every C/R
// model simulation and the aggregation used to average the paper's 1000
// simulation runs: per-run overhead breakdowns (checkpoint, recomputation,
// recovery — the stacked bars of Fig. 6), fault-tolerance ratios (Tables
// II and IV), and percent-reduction series versus the base model (the
// y-axes of Figs. 4 and 7). The package holds no storage format:
// internal/runcache persists an Agg's runs and failed-run ledger in an
// entry layout of its own.
package stats

import (
	"fmt"
	"math"
)

// Overheads is the per-run overhead breakdown in seconds, following the
// paper's definitions: checkpoint overhead is time the application is
// blocked for checkpointing (periodic BB writes, proactive PFS commits,
// p-ckpt waiting, LM dilation); recomputation overhead is execution redone
// after failures; recovery overhead is time restoring checkpoints.
type Overheads struct {
	Checkpoint float64
	Recompute  float64
	Recovery   float64
}

// Total returns the summed overhead in seconds.
func (o Overheads) Total() float64 { return o.Checkpoint + o.Recompute + o.Recovery }

// Add returns the element-wise sum.
func (o Overheads) Add(p Overheads) Overheads {
	return Overheads{o.Checkpoint + p.Checkpoint, o.Recompute + p.Recompute, o.Recovery + p.Recovery}
}

// Scale returns the element-wise product with f.
func (o Overheads) Scale(f float64) Overheads {
	return Overheads{o.Checkpoint * f, o.Recompute * f, o.Recovery * f}
}

// Hours returns the breakdown converted to hours.
func (o Overheads) Hours() Overheads { return o.Scale(1.0 / 3600) }

// String implements fmt.Stringer, printing hours.
func (o Overheads) String() string {
	h := o.Hours()
	return fmt.Sprintf("ckpt=%.2fh recompute=%.2fh recovery=%.2fh total=%.2fh", h.Checkpoint, h.Recompute, h.Recovery, h.Total())
}

// RunResult is one simulation run's outcome.
type RunResult struct {
	Overheads
	// WallSeconds is the job's total wall time including overheads.
	WallSeconds float64
	// Failures counts failures that struck the job (excluding failures
	// avoided by live migration, which never strike).
	Failures int
	// Predicted counts failures the predictor announced in time.
	Predicted int
	// Mitigated counts failures neutralised by a proactive checkpoint
	// (safeguard or p-ckpt) committed before the failure.
	Mitigated int
	// Avoided counts failures avoided entirely by live migration.
	Avoided int
	// Checkpoints counts completed periodic checkpoints.
	Checkpoints int
	// ProactiveCkpts counts proactive (safeguard or p-ckpt) episodes.
	ProactiveCkpts int
	// Migrations counts completed live migrations.
	Migrations int
	// AbortedMigrations counts migrations superseded by p-ckpt.
	AbortedMigrations int

	// Degraded-platform accounting (all zero on a perfect platform; see
	// internal/faultinject).

	// BBWriteFailures counts injected burst-buffer checkpoint-write
	// failures.
	BBWriteFailures int
	// PFSWriteFailures counts injected PFS write failures (drains,
	// safeguards, prioritized writes, phase-2 collectives).
	PFSWriteFailures int
	// CorruptRestarts counts checkpoint generations discovered corrupt
	// while resolving restarts.
	CorruptRestarts int
	// RestartRetries counts failed restart attempts that were retried
	// after backoff.
	RestartRetries int
	// Cascades counts secondary failures that landed inside recovery
	// windows.
	Cascades int

	// Truncated marks a run the platform ended early: a node failure
	// struck after the spare pool was exhausted, so the resource manager
	// could not re-host the failed rank and the job died. WallSeconds and
	// the overhead buckets cover the truncated span only; ComputeSeconds
	// of progress was NOT reached.
	Truncated bool
}

// TotalFailures returns all failure events, including avoided ones.
func (r RunResult) TotalFailures() int { return r.Failures + r.Avoided }

// FTRatio returns the fault-tolerance ratio of the paper's Tables II/IV:
// successfully handled (mitigated or avoided) failures over all failures.
// It returns 0 for a run with no failures.
func (r RunResult) FTRatio() float64 {
	total := r.TotalFailures()
	if total == 0 {
		return 0
	}
	return float64(r.Mitigated+r.Avoided) / float64(total)
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	CI95Lo, CI95Hi float64
}

// Summarize computes descriptive statistics. An empty sample yields a
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	half := 1.96 * s.Std / math.Sqrt(float64(len(xs)))
	s.CI95Lo, s.CI95Hi = s.Mean-half, s.Mean+half
	return s
}

// FailedRun records a simulation run that panicked instead of
// completing: the sweep runner (internal/sweep) converts the panic into
// this record so one bad run reports its seed and configuration
// without killing the rest of the sweep.
type FailedRun struct {
	// Seed is the derived per-run seed that reproduces the panic.
	Seed uint64
	// Config describes the failing configuration (model, app, tier).
	Config string
	// Err is the recovered panic value's rendering.
	Err string
}

// Agg accumulates RunResults across repeated seeds, plus the ledger of
// runs that failed to complete.
type Agg struct {
	runs   []RunResult
	failed []FailedRun
}

// NewAgg returns an aggregate over completed runs and the ledger of
// failed ones, taking ownership of both slices.
func NewAgg(runs []RunResult, failed []FailedRun) *Agg { return &Agg{runs: runs, failed: failed} }

// Add records one run.
func (a *Agg) Add(r RunResult) { a.runs = append(a.runs, r) }

// AddFailed records a run that panicked. Failed runs are excluded from
// every derived statistic; they exist so the sweep can finish and still
// report exactly what broke.
func (a *Agg) AddFailed(f FailedRun) { a.failed = append(a.failed, f) }

// Runs returns the recorded results.
func (a *Agg) Runs() []RunResult { return a.runs }

// Failed returns the ledger of runs that panicked instead of completing.
func (a *Agg) Failed() []FailedRun { return a.failed }

// MeanOverheads returns the run-averaged overhead breakdown.
func (a *Agg) MeanOverheads() Overheads {
	if len(a.runs) == 0 {
		return Overheads{}
	}
	var sum Overheads
	for _, r := range a.runs {
		sum = sum.Add(r.Overheads)
	}
	return sum.Scale(1 / float64(len(a.runs)))
}

// MeanFTRatio returns the pooled fault-tolerance ratio: total handled
// over total failures across runs (more stable than averaging per-run
// ratios when failure counts are small).
func (a *Agg) MeanFTRatio() float64 {
	var handled, total int
	for _, r := range a.runs {
		handled += r.Mitigated + r.Avoided
		total += r.TotalFailures()
	}
	if total == 0 {
		return 0
	}
	return float64(handled) / float64(total)
}

// MeanWallSeconds returns the run-averaged wall time.
func (a *Agg) MeanWallSeconds() float64 {
	if len(a.runs) == 0 {
		return 0
	}
	var sum float64
	for _, r := range a.runs {
		sum += r.WallSeconds
	}
	return sum / float64(len(a.runs))
}

// FaultCounts aggregates the degraded-platform fault counters over a
// sweep.
type FaultCounts struct {
	BBWriteFailures  int
	PFSWriteFailures int
	CorruptRestarts  int
	RestartRetries   int
	Cascades         int
}

// FaultTotals sums the injected-fault counters across completed runs.
func (a *Agg) FaultTotals() FaultCounts {
	var f FaultCounts
	for _, r := range a.runs {
		f.BBWriteFailures += r.BBWriteFailures
		f.PFSWriteFailures += r.PFSWriteFailures
		f.CorruptRestarts += r.CorruptRestarts
		f.RestartRetries += r.RestartRetries
		f.Cascades += r.Cascades
	}
	return f
}

// TotalSummary returns descriptive statistics of the total overhead.
func (a *Agg) TotalSummary() Summary {
	xs := make([]float64, len(a.runs))
	for i, r := range a.runs {
		xs[i] = r.Total()
	}
	return Summarize(xs)
}

// PercentReduction returns 100·(base−value)/base: the paper's
// "% change of overhead relative to the base model" axis, where 0 means
// unchanged and 100 means the overhead was eliminated. A non-positive
// base yields 0.
func PercentReduction(base, value float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (base - value) / base
}

// ReductionBreakdown returns per-component percent reductions of m
// relative to base, plus the total reduction.
func ReductionBreakdown(base, m Overheads) (ckpt, recompute, recovery, total float64) {
	return PercentReduction(base.Checkpoint, m.Checkpoint),
		PercentReduction(base.Recompute, m.Recompute),
		PercentReduction(base.Recovery, m.Recovery),
		PercentReduction(base.Total(), m.Total())
}
