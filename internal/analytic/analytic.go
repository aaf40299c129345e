// Package analytic implements the closed-form LM-versus-p-ckpt comparison
// the paper derives in Observation 8 (its Eqs. (4)–(8)): when does the
// prioritized checkpoint beat live migration?
//
// The model's quantities, for a base model with checkpoint overhead C and
// recomputation overhead R:
//
//   - LM reduces checkpoint overhead by C·(1−√(1−σ)) — Eq. (5) — via the
//     σ-elongated checkpoint interval of Eq. (2);
//   - LM reduces recomputation by R·σ, p-ckpt by R·β, where β, the
//     fraction of failures p-ckpt can handle, follows from a uniform
//     lead-time distribution and equal network/PFS single-node
//     bandwidth: β = (α−1+σ)/α — Eq. (6) — with α the LM-transfer to
//     checkpoint-size ratio;
//   - p-ckpt wins when its extra recomputation savings exceed LM's
//     checkpoint savings — Eq. (4), rearranged into Eq. (7);
//   - assuming overhead splits evenly between checkpointing and
//     recomputation, Eq. (7) simplifies to the paper's Eq. (8):
//     α > (σ+1)/(σ+√(1−σ)), which for 0 ≤ σ < 0.61 places the
//     break-even α in [1.04, 1.30).
package analytic

import "math"

// SigmaMax is the largest σ for which the model is self-consistent: LM's
// combined checkpoint and recomputation savings must not exceed the base
// recomputation overhead, which bounds σ below (√5−1)/2 ≈ 0.618 (the
// paper rounds to 0.61).
var SigmaMax = (math.Sqrt(5) - 1) / 2

// CkptReductionLM returns Eq. (5): the checkpoint-overhead reduction LM
// achieves on a base model with checkpoint overhead ckptB, through the
// 1/√(1−σ) interval elongation of Eq. (2).
func CkptReductionLM(ckptB, sigma float64) float64 {
	checkSigma(sigma)
	if ckptB < 0 {
		panic("analytic: negative checkpoint overhead")
	}
	return ckptB * (1 - math.Sqrt(1-sigma))
}

// Beta returns Eq. (6): the fraction of failures p-ckpt handles, given
// the LM transfer ratio alpha and the LM-handleable fraction sigma, under
// a uniform lead-time distribution and matched network / single-node PFS
// bandwidths (≈12.5 vs 13–13.5 GB/s on Summit).
func Beta(alpha, sigma float64) float64 {
	checkSigma(sigma)
	checkAlpha(alpha)
	beta := (alpha - 1 + sigma) / alpha
	return math.Min(math.Max(beta, 0), 1)
}

// RecompReductionLM returns LM's recomputation saving on base overhead
// recompB: R·σ.
func RecompReductionLM(recompB, sigma float64) float64 {
	checkSigma(sigma)
	return recompB * sigma
}

// RecompReductionPckpt returns p-ckpt's recomputation saving: R·β.
func RecompReductionPckpt(recompB, alpha, sigma float64) float64 {
	return recompB * Beta(alpha, sigma)
}

// PckptWins evaluates Eq. (7): true when p-ckpt's recomputation advantage
// over LM exceeds LM's checkpoint-overhead advantage, for a base model
// with the given recomputation and checkpoint overheads.
func PckptWins(alpha, sigma, recompB, ckptB float64) bool {
	if ckptB <= 0 {
		// No checkpoint overhead to reduce: p-ckpt wins whenever it
		// handles more failures, which Eq. (6) guarantees for α > 1−σ.
		return RecompReductionPckpt(recompB, alpha, sigma) > RecompReductionLM(recompB, sigma)
	}
	lhs := CkptReductionLM(1, sigma) / (Beta(alpha, sigma) - sigma)
	if Beta(alpha, sigma)-sigma <= 0 {
		return false // LM handles at least as many failures as p-ckpt
	}
	return lhs < recompB/ckptB
}

// AlphaThreshold returns Eq. (8) exactly as the paper prints it: the
// minimum LM-transfer ratio α above which p-ckpt outperforms LM, assuming
// application overhead splits evenly between recomputation and
// checkpointing: α > (σ+1)/(σ+√(1−σ)).
//
// Note: the published Eq. (8) is a simplification that does not follow
// algebraically from Eq. (7) — solving Eq. (7) at a 50/50 split yields
// AlphaThresholdExact below, which is strictly larger for σ > 0. We ship
// both: AlphaThreshold reproduces the paper's stated 1.04 ≤ α < 1.30
// region; AlphaThresholdExact is the self-consistent bound.
func AlphaThreshold(sigma float64) float64 {
	checkSigma(sigma)
	return (sigma + 1) / (sigma + math.Sqrt(1-sigma))
}

// AlphaThresholdExact solves Eq. (7) exactly at a 50/50 overhead split:
// α > (1−σ)/(√(1−σ)−σ). It diverges as σ approaches SigmaMax, where LM's
// interval elongation alone consumes the whole recomputation budget.
func AlphaThresholdExact(sigma float64) float64 {
	checkSigma(sigma)
	den := math.Sqrt(1-sigma) - sigma
	if den <= 0 {
		return math.Inf(1)
	}
	return (1 - sigma) / den
}

// AlphaRange sweeps σ over [0, SigmaMax) and returns the break-even α at
// the endpoints — the paper's "1.04 ≤ α < 1.30" statement (its lower
// endpoint is quoted at σ≈0.1 rather than σ=0, where the threshold is
// exactly 1).
func AlphaRange() (atSigmaLow, atSigmaMax float64) {
	return AlphaThreshold(0.1), AlphaThreshold(SigmaMax)
}

func checkSigma(sigma float64) {
	if sigma < 0 || sigma >= 1 {
		panic("analytic: sigma outside [0, 1)")
	}
}

func checkAlpha(alpha float64) {
	if alpha <= 0 {
		panic("analytic: non-positive alpha")
	}
}
