package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestSplitIndependentOfParentPosition(t *testing.T) {
	a := New(7)
	sub1 := a.Split(99)
	// Advance the parent; Split must still derive the same substream
	// because derivation depends only on parent state at Split time...
	first := sub1.Uint64()
	b := New(7)
	sub2 := b.Split(99)
	if got := sub2.Uint64(); got != first {
		t.Fatalf("Split(99) not reproducible: %d vs %d", got, first)
	}
}

func TestSplitDistinctKeys(t *testing.T) {
	a := New(7)
	s1 := a.Split(1)
	s2 := a.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if s1.Uint64() == s2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("substreams 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	f := func(_ uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	r := New(4)
	for i := 0; i < 100000; i++ {
		if r.Float64Open() <= 0 {
			t.Fatal("Float64Open returned a non-positive value")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(6)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

// meanOf draws n samples and returns their mean.
func meanOf(t *testing.T, r *Source, n int, sample func(*Source) float64) float64 {
	t.Helper()
	var sum float64
	for i := 0; i < n; i++ {
		sum += sample(r)
	}
	return sum / float64(n)
}

func TestExponentialMean(t *testing.T) {
	r := New(8)
	mean := meanOf(t, r, 200000, func(r *Source) float64 { return r.Exponential(0.5) })
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("Exponential(0.5) mean %.4f, want ~2", mean)
	}
}

func TestWeibullMean(t *testing.T) {
	r := New(9)
	// Titan's published parameters from Table III.
	d := WeibullDist{Shape: 0.6885, Scale: 5.4527}
	mean := meanOf(t, r, 400000, d.Sample)
	if rel := math.Abs(mean-d.Mean()) / d.Mean(); rel > 0.02 {
		t.Fatalf("Weibull mean %.4f, analytic %.4f, rel err %.3f", mean, d.Mean(), rel)
	}
}

func TestWeibullShape1IsExponential(t *testing.T) {
	r := New(10)
	d := WeibullDist{Shape: 1, Scale: 3}
	mean := meanOf(t, r, 200000, d.Sample)
	if math.Abs(mean-3) > 0.1 {
		t.Fatalf("Weibull(1,3) mean %.4f, want ~3", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %.4f, want ~1", variance)
	}
}

func TestLogNormalFromMeanCV(t *testing.T) {
	d := LogNormalFromMeanCV(40, 0.6)
	if rel := math.Abs(d.Mean()-40) / 40; rel > 1e-12 {
		t.Fatalf("analytic mean %.6f, want 40", d.Mean())
	}
	r := New(12)
	mean := meanOf(t, r, 400000, d.Sample)
	if math.Abs(mean-40)/40 > 0.02 {
		t.Fatalf("sampled mean %.4f, want ~40", mean)
	}
}

func TestTriangularRangeAndMean(t *testing.T) {
	r := New(13)
	d := TriangularDist{Lo: 1, Mode: 3, Hi: 8}
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		if v < 1 || v > 8 {
			t.Fatalf("triangular sample %.4f out of [1, 8]", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-4) > 0.05 {
		t.Fatalf("triangular mean %.4f, want ~4", mean)
	}
}

func TestUniformDist(t *testing.T) {
	r := New(14)
	d := UniformDist{Lo: 2, Hi: 6}
	mean := meanOf(t, r, 200000, d.Sample)
	if math.Abs(mean-4) > 0.05 {
		t.Fatalf("uniform mean %.4f, want ~4", mean)
	}
}

func TestMixtureWeights(t *testing.T) {
	m := NewMixture(
		MixtureComponent{Weight: 3, Dist: ConstDist{Value: 1}},
		MixtureComponent{Weight: 1, Dist: ConstDist{Value: 5}},
	)
	if want := (3.0*1 + 1.0*5) / 4; math.Abs(m.Mean()-want) > 1e-12 {
		t.Fatalf("mixture mean %.4f, want %.4f", m.Mean(), want)
	}
	r := New(15)
	count1 := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if m.Sample(r) == 1 {
			count1++
		}
	}
	if frac := float64(count1) / n; math.Abs(frac-0.75) > 0.01 {
		t.Fatalf("component 0 selected %.3f of draws, want ~0.75", frac)
	}
}

func TestMixtureSampleComponent(t *testing.T) {
	m := NewMixture(
		MixtureComponent{Weight: 1, Dist: ConstDist{Value: 10}},
		MixtureComponent{Weight: 1, Dist: ConstDist{Value: 20}},
	)
	r := New(16)
	for i := 0; i < 1000; i++ {
		v, c := m.SampleComponent(r)
		if (c == 0 && v != 10) || (c == 1 && v != 20) {
			t.Fatalf("component %d returned %v", c, v)
		}
	}
}

func TestScaled(t *testing.T) {
	d := Scaled{Factor: 1.5, Dist: ConstDist{Value: 4}}
	if d.Mean() != 6 {
		t.Fatalf("scaled mean %v, want 6", d.Mean())
	}
	if got := d.Sample(New(1)); got != 6 {
		t.Fatalf("scaled sample %v, want 6", got)
	}
}

func TestTruncated(t *testing.T) {
	r := New(17)
	d := Truncated{Lo: 2, Hi: 3, Dist: ExponentialDist{Rate: 1}}
	for i := 0; i < 10000; i++ {
		v := d.Sample(r)
		if v < 2 || v > 3 {
			t.Fatalf("truncated sample %.4f out of [2, 3]", v)
		}
	}
}

func TestTruncatedClampsPathological(t *testing.T) {
	// The constant 10 can never fall in [0, 1]; sampling must clamp, not hang.
	d := Truncated{Lo: 0, Hi: 1, Dist: ConstDist{Value: 10}}
	if v := d.Sample(New(18)); v != 1 {
		t.Fatalf("expected clamp to 1, got %v", v)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(21)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %.4f", frac)
	}
}

func TestWeibullPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Weibull with zero shape did not panic")
		}
	}()
	New(1).Weibull(0, 1)
}

func TestMixtureEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty mixture did not panic")
		}
	}()
	NewMixture()
}
