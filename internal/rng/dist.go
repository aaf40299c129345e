package rng

import (
	"fmt"
	"math"
	"sort"
)

// Dist is a sampleable distribution over positive reals. The failure and
// lead-time models accept a Dist so that experiments can swap the
// published mixture for simpler shapes in tests.
type Dist interface {
	// Sample draws one value using the provided source.
	Sample(r *Source) float64
	// Mean returns the analytical mean of the distribution.
	Mean() float64
}

// WeibullDist is a Weibull distribution with Shape k and Scale lambda.
type WeibullDist struct {
	Shape, Scale float64
}

// Sample draws a Weibull variate.
func (d WeibullDist) Sample(r *Source) float64 { return r.Weibull(d.Shape, d.Scale) }

// Mean returns scale * Gamma(1 + 1/shape).
func (d WeibullDist) Mean() float64 { return d.Scale * math.Gamma(1+1/d.Shape) }

// String implements fmt.Stringer.
func (d WeibullDist) String() string {
	return fmt.Sprintf("Weibull(shape=%.4g, scale=%.4g)", d.Shape, d.Scale)
}

// ExponentialDist is an exponential distribution with the given Rate.
type ExponentialDist struct {
	Rate float64
}

// Sample draws an exponential variate.
func (d ExponentialDist) Sample(r *Source) float64 { return r.Exponential(d.Rate) }

// Mean returns 1/rate.
func (d ExponentialDist) Mean() float64 { return 1 / d.Rate }

// LogNormalDist is a log-normal distribution parameterised by the mean Mu
// and standard deviation Sigma of the underlying normal.
type LogNormalDist struct {
	Mu, Sigma float64
}

// Sample draws a log-normal variate.
func (d LogNormalDist) Sample(r *Source) float64 { return r.LogNormal(d.Mu, d.Sigma) }

// Mean returns exp(mu + sigma^2/2).
func (d LogNormalDist) Mean() float64 { return math.Exp(d.Mu + d.Sigma*d.Sigma/2) }

// LogNormalFromMeanCV constructs a LogNormalDist with the requested mean
// and coefficient of variation (stddev/mean). This is how the lead-time
// model translates "mean lead time 40 s, moderately spread" into
// parameters.
func LogNormalFromMeanCV(mean, cv float64) LogNormalDist {
	if mean <= 0 || cv <= 0 {
		panic("rng: LogNormalFromMeanCV with non-positive parameter")
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return LogNormalDist{Mu: mu, Sigma: math.Sqrt(sigma2)}
}

// UniformDist is a uniform distribution on [Lo, Hi).
type UniformDist struct {
	Lo, Hi float64
}

// Sample draws a uniform variate.
func (d UniformDist) Sample(r *Source) float64 { return r.Uniform(d.Lo, d.Hi) }

// Mean returns the midpoint.
func (d UniformDist) Mean() float64 { return (d.Lo + d.Hi) / 2 }

// TriangularDist is a triangular distribution on [Lo, Hi] with Mode.
type TriangularDist struct {
	Lo, Mode, Hi float64
}

// Sample draws a triangular variate.
func (d TriangularDist) Sample(r *Source) float64 { return r.Triangular(d.Lo, d.Mode, d.Hi) }

// Mean returns (lo + mode + hi) / 3.
func (d TriangularDist) Mean() float64 { return (d.Lo + d.Mode + d.Hi) / 3 }

// ConstDist always returns Value. Useful for deterministic tests.
type ConstDist struct {
	Value float64
}

// Sample returns the constant.
func (d ConstDist) Sample(*Source) float64 { return d.Value }

// Mean returns the constant.
func (d ConstDist) Mean() float64 { return d.Value }

// MixtureComponent pairs a component distribution with a selection weight.
type MixtureComponent struct {
	Weight float64
	Dist   Dist
}

// Mixture is a finite weighted mixture of distributions. The ten failure
// sequences of the paper's Fig. 2a form a Mixture whose weights are the
// observed occurrence counts.
type Mixture struct {
	components []MixtureComponent
	cum        []float64 // cumulative normalised weights
	total      float64
}

// NewMixture builds a mixture from components. Weights must be positive;
// they are normalised internally.
func NewMixture(components ...MixtureComponent) *Mixture {
	if len(components) == 0 {
		panic("rng: empty mixture")
	}
	m := &Mixture{components: components}
	for _, c := range components {
		if c.Weight <= 0 {
			panic("rng: mixture component with non-positive weight")
		}
		m.total += c.Weight
		m.cum = append(m.cum, m.total)
	}
	return m
}

// Sample picks a component by weight, then samples it.
func (m *Mixture) Sample(r *Source) float64 {
	return m.components[m.pick(r)].Dist.Sample(r)
}

// SampleComponent picks a component by weight and returns both the sampled
// value and the index of the chosen component. The failure model uses the
// index to report which failure sequence fired.
func (m *Mixture) SampleComponent(r *Source) (value float64, component int) {
	i := m.pick(r)
	return m.components[i].Dist.Sample(r), i
}

func (m *Mixture) pick(r *Source) int {
	u := r.Float64() * m.total
	i := sort.SearchFloat64s(m.cum, u)
	if i >= len(m.cum) {
		i = len(m.cum) - 1
	}
	// SearchFloat64s returns the first index with cum >= u; when u lands
	// exactly on a boundary the next component is intended, but the
	// difference has probability zero and either choice is valid.
	return i
}

// Mean returns the weight-averaged component mean.
func (m *Mixture) Mean() float64 {
	var sum float64
	for _, c := range m.components {
		sum += c.Weight * c.Dist.Mean()
	}
	return sum / m.total
}

// Scaled wraps a distribution and multiplies every sample (and the mean)
// by Factor. Lead-time variability experiments scale the published lead
// times by 1 ± x/100 without touching the underlying shape.
type Scaled struct {
	Factor float64
	Dist   Dist
}

// Sample draws from the wrapped distribution and scales the result.
func (d Scaled) Sample(r *Source) float64 { return d.Factor * d.Dist.Sample(r) }

// Mean returns factor times the wrapped mean.
func (d Scaled) Mean() float64 { return d.Factor * d.Dist.Mean() }

// Truncated clamps samples of the wrapped distribution into [Lo, Hi] by
// resampling (up to a bounded number of attempts, then clamping). It keeps
// lead times physical: never negative, never beyond the chain horizon.
type Truncated struct {
	Lo, Hi float64
	Dist   Dist
}

// Sample draws until the value falls inside [Lo, Hi], clamping after 64
// rejected attempts so that pathological parameters cannot hang a run.
func (d Truncated) Sample(r *Source) float64 {
	for i := 0; i < 64; i++ {
		v := d.Dist.Sample(r)
		if v >= d.Lo && v <= d.Hi {
			return v
		}
	}
	v := d.Dist.Sample(r)
	return math.Min(math.Max(v, d.Lo), d.Hi)
}

// Mean returns the untruncated mean; exact truncated moments are not
// needed by any consumer and the approximation is documented.
func (d Truncated) Mean() float64 { return d.Dist.Mean() }
