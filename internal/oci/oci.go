// Package oci computes the Optimal Checkpoint Interval used by the C/R
// models: Young's first-order formula, Eq. (1) of the paper, and the
// σ-extended variant, Eq. (2), that credits live migration with avoiding
// a σ fraction of failures and therefore lengthens the interval. It also
// provides the asynchronous-drain loss-window analysis of the paper's
// Fig. 1 (computation lost when a failure strikes during checkpointing
// to the burst buffer, during the asynchronous bleed-off to the PFS, or
// during post-checkpoint computation).
package oci

import (
	"fmt"
	"math"
)

// YoungSigma returns the σ-extended interval per Eq. (2):
// sqrt(2·t_bb / (λ·c·(1−σ))), where tCkptBB is the seconds to write one
// checkpoint to the burst buffers, lambda the per-node failure rate
// (failures/second) and nodes the job's node count. σ is the fraction of
// failures avoided proactively by live migration; σ=0 is Young's Eq. (1),
// sqrt(2·t_bb / (λ·c)). The p-ckpt-only
// model keeps σ=0 because p-ckpt mitigates failures by checkpointing (a
// recovery still happens) rather than avoiding them.
func YoungSigma(tCkptBB, lambda float64, nodes int, sigma float64) float64 {
	switch {
	case tCkptBB <= 0:
		panic(fmt.Sprintf("oci: non-positive checkpoint time %g", tCkptBB))
	case lambda <= 0:
		panic(fmt.Sprintf("oci: non-positive failure rate %g", lambda))
	case nodes <= 0:
		panic(fmt.Sprintf("oci: non-positive node count %d", nodes))
	case sigma < 0 || sigma >= 1:
		panic(fmt.Sprintf("oci: sigma %g outside [0, 1)", sigma))
	}
	return math.Sqrt(2 * tCkptBB / (lambda * float64(nodes) * (1 - sigma)))
}

// FromJobRate is YoungSigma expressed with the job-wide rate λ·c directly
// (the quantity the failure package exposes as System.JobFailureRate).
func FromJobRate(tCkptBB, jobRate, sigma float64) float64 {
	if jobRate <= 0 {
		panic(fmt.Sprintf("oci: non-positive job rate %g", jobRate))
	}
	return YoungSigma(tCkptBB, jobRate, 1, sigma)
}

// LossCase classifies where in the checkpoint cycle a failure struck,
// which determines how much computation is lost (the paper's Fig. 1).
type LossCase uint8

const (
	// LossCompute: failure during computation after the previous
	// checkpoint fully committed — lose the compute since then (case A).
	LossCompute LossCase = iota
	// LossAsyncDrain: failure while the previous checkpoint was still
	// bleeding from BB to PFS — the in-flight checkpoint is unusable, so
	// the loss reaches back through the previous interval (case B).
	LossAsyncDrain
	// LossBBWrite: failure during the synchronous BB write — the
	// checkpoint being written is lost along with the interval that
	// produced it (case C).
	LossBBWrite
)

// String implements fmt.Stringer.
func (c LossCase) String() string {
	switch c {
	case LossCompute:
		return "compute"
	case LossAsyncDrain:
		return "async-drain"
	case LossBBWrite:
		return "bb-write"
	default:
		return fmt.Sprintf("LossCase(%d)", uint8(c))
	}
}

// CycleLoss returns the computation lost when a failure strikes offset
// seconds into a checkpoint cycle, following Fig. 1. A cycle is: compute
// for interval seconds, write BB for tBB seconds, while the previous
// checkpoint drains asynchronously for tDrain seconds measured from the
// cycle start. Returned loss is in seconds of computation to redo. No
// simulation classifies failures this way: the tiers restart from the
// cluster's checkpoint ledger, and TestCycleLossOracle (internal/stepsim)
// checks every failure of traced model-B runs against this function.
func CycleLoss(offset, interval, tBB, tDrain float64) (float64, LossCase) {
	switch {
	case offset < 0:
		panic("oci: negative offset")
	case interval <= 0:
		panic("oci: non-positive interval")
	case tBB < 0 || tDrain < 0:
		panic("oci: negative checkpoint durations")
	}
	if offset < tDrain {
		// Case B: the drain of the previous checkpoint has not finished;
		// that checkpoint is unusable, so the loss spans the previous
		// interval plus the compute performed this cycle.
		return interval + offset, LossAsyncDrain
	}
	if offset < interval {
		// Case A: plain computation loss since the last good checkpoint.
		return offset, LossCompute
	}
	// Case C: failure during the synchronous BB write; the interval that
	// produced the in-progress checkpoint is lost (the write is void).
	return interval, LossBBWrite
}

// ExpectedWaste returns the first-order expected overhead fraction of a
// periodic checkpoint schedule: checkpoint time per cycle plus expected
// recompute loss, divided by the interval. No simulation prices waste
// this way; it is the oracle of TestYoungMinimisesWaste, which checks
// that the interval the models run (FromJobRate) minimises it.
func ExpectedWaste(interval, tBB, jobRate float64) float64 {
	if interval <= 0 {
		panic("oci: non-positive interval")
	}
	// Per unit time: tBB/interval spent checkpointing; a failure occurs
	// at rate jobRate and loses interval/2 on average.
	return tBB/interval + jobRate*interval/2
}
