package oci

import (
	"math"
	"testing"
	"testing/quick"
)

func TestYoungKnownValue(t *testing.T) {
	// sqrt(2·100 / (1e-8 · 1000)) = sqrt(2e10/1000)… compute directly.
	got := YoungSigma(100, 1e-8, 1000, 0)
	want := math.Sqrt(2 * 100 / (1e-8 * 1000))
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("YoungSigma(σ=0) = %g, want %g", got, want)
	}
}

// TestYoungSigmaZeroMatchesYoung: at σ = 0, Eq. (2) is Young's Eq. (1),
// sqrt(2·t_bb / (λ·c)), bit for bit.
func TestYoungSigmaZeroMatchesYoung(t *testing.T) {
	f := func(a, b uint16) bool {
		tBB := float64(a%1000) + 1
		lam := (float64(b%1000) + 1) * 1e-9
		return YoungSigma(tBB, lam, 500, 0) == math.Sqrt(2*tBB/(lam*500))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestYoungSigmaLengthensInterval(t *testing.T) {
	base := YoungSigma(100, 1e-8, 1000, 0)
	for _, sigma := range []float64{0.1, 0.3, 0.6, 0.9} {
		got := YoungSigma(100, 1e-8, 1000, sigma)
		want := base / math.Sqrt(1-sigma)
		if math.Abs(got-want)/want > 1e-12 {
			t.Errorf("sigma=%.1f: got %g, want %g", sigma, got, want)
		}
		if got <= base {
			t.Errorf("sigma=%.1f did not lengthen the interval", sigma)
		}
	}
}

func TestPaperSigmaElongationRange(t *testing.T) {
	// Observation 6: the reduced failure rate increases the OCI by
	// ≈54–340 %. Those factors correspond to σ ≈ 0.58–0.95 via
	// 1/sqrt(1−σ); verify the formula reproduces the endpoints.
	young := YoungSigma(100, 1e-8, 100, 0)
	lo := YoungSigma(100, 1e-8, 100, 0.578) / young
	hi := YoungSigma(100, 1e-8, 100, 0.948) / young
	if lo < 1.5 || lo > 1.6 {
		t.Errorf("σ=0.578 elongation %.2f, want ≈1.54", lo)
	}
	if hi < 4.2 || hi > 4.6 {
		t.Errorf("σ=0.948 elongation %.2f, want ≈4.4", hi)
	}
}

func TestFromJobRate(t *testing.T) {
	if a, b := FromJobRate(50, 1e-5, 0.2), YoungSigma(50, 1e-5, 1, 0.2); a != b {
		t.Fatalf("FromJobRate inconsistent: %g vs %g", a, b)
	}
}

func TestYoungPanics(t *testing.T) {
	cases := []func(){
		func() { YoungSigma(0, 1e-8, 10, 0) },
		func() { YoungSigma(10, 0, 10, 0) },
		func() { YoungSigma(10, 1e-8, 0, 0) },
		func() { YoungSigma(10, 1e-8, 10, -0.1) },
		func() { YoungSigma(10, 1e-8, 10, 1) },
		func() { FromJobRate(10, 0, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestYoungMinimisesWaste(t *testing.T) {
	const tBB, jobRate = 135.0, 1e-5
	opt := FromJobRate(tBB, jobRate, 0)
	wOpt := ExpectedWaste(opt, tBB, jobRate)
	for _, f := range []float64{0.25, 0.5, 0.8, 1.25, 2, 4} {
		if w := ExpectedWaste(opt*f, tBB, jobRate); w < wOpt-1e-12 {
			t.Errorf("interval %.0f×%.2f has lower waste %.6f than optimum %.6f", opt, f, w, wOpt)
		}
	}
}

func TestCycleLossCaseA(t *testing.T) {
	loss, c := CycleLoss(500, 1000, 50, 200)
	if c != LossCompute || loss != 500 {
		t.Fatalf("got (%g, %v), want (500, compute)", loss, c)
	}
}

func TestCycleLossCaseB(t *testing.T) {
	loss, c := CycleLoss(100, 1000, 50, 200)
	if c != LossAsyncDrain || loss != 1100 {
		t.Fatalf("got (%g, %v), want (1100, async-drain)", loss, c)
	}
}

func TestCycleLossCaseC(t *testing.T) {
	loss, c := CycleLoss(1020, 1000, 50, 200)
	if c != LossBBWrite || loss != 1000 {
		t.Fatalf("got (%g, %v), want (1000, bb-write)", loss, c)
	}
}

func TestCycleLossBoundaries(t *testing.T) {
	// Exactly at the drain end: counts as plain compute loss.
	if loss, c := CycleLoss(200, 1000, 50, 200); c != LossCompute || loss != 200 {
		t.Fatalf("drain boundary: (%g, %v)", loss, c)
	}
	// Exactly at the interval end: the BB write has begun.
	if _, c := CycleLoss(1000, 1000, 50, 200); c != LossBBWrite {
		t.Fatalf("interval boundary: %v", c)
	}
	// Zero drain time disables case B entirely.
	if _, c := CycleLoss(0, 1000, 50, 0); c != LossCompute {
		t.Fatalf("zero drain: %v", c)
	}
}

func TestCycleLossQuickNonNegative(t *testing.T) {
	f := func(a, b, c, d uint16) bool {
		interval := float64(a%10000) + 1
		tBB := float64(b % 500)
		tDrain := float64(c % 2000)
		offset := float64(d) / 65535 * (interval + tBB)
		loss, _ := CycleLoss(offset, interval, tBB, tDrain)
		return loss >= 0 && loss <= 2*interval+tBB
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCycleLossPanics(t *testing.T) {
	cases := []func(){
		func() { CycleLoss(-1, 10, 1, 1) },
		func() { CycleLoss(1, 0, 1, 1) },
		func() { CycleLoss(1, 10, -1, 1) },
		func() { CycleLoss(1, 10, 1, -1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestLossCaseString(t *testing.T) {
	if LossCompute.String() != "compute" || LossAsyncDrain.String() != "async-drain" || LossBBWrite.String() != "bb-write" {
		t.Fatal("LossCase strings wrong")
	}
}
