// Package rng provides a deterministic pseudo-random number generator and
// the probability distributions used throughout the p-ckpt simulation:
// uniform, exponential, Weibull (failure inter-arrival times, Table III of
// the paper), log-normal and triangular (failure-chain lead times), and
// weighted mixtures (the ten-sequence lead-time model of Fig. 2a).
//
// Every stochastic input of the simulator flows through this package so
// that a simulation run is a pure function of its seed. The generator is
// xoshiro256**, seeded via SplitMix64, following the reference algorithms
// by Blackman and Vigna. Substreams derived with Split are statistically
// independent, which lets each (experiment, run, purpose) tuple own its
// own stream without cross-contamination when one component draws a
// variable number of samples.
package rng

import "math"

// Source is a deterministic xoshiro256** generator. The zero value is not
// a valid generator; use New or Split.
type Source struct {
	s [4]uint64
}

// splitMix64 advances x and returns the next SplitMix64 output. It is used
// only to expand seeds into full generator state.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Two Sources constructed with the
// same seed produce identical streams.
func New(seed uint64) *Source {
	var s Source
	s.Seed(seed)
	return &s
}

// Seed resets r, in place, to the stream New(seed) starts: a recycled
// run record reseeds its generators without allocating new ones.
func (r *Source) Seed(seed uint64) {
	for i := range r.s {
		r.s[i] = splitMix64(&seed)
	}
	// xoshiro256** requires a nonzero state; SplitMix64 of any seed is
	// astronomically unlikely to produce all zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives an independent substream labelled by key. The parent
// stream is not advanced, so the derivation is stable no matter how many
// draws the parent has made: substream identity depends only on the
// parent's seed state at Split time and the key.
func (r *Source) Split(key uint64) *Source {
	var s Source
	r.SplitTo(key, &s)
	return &s
}

// SplitTo sets dst to the substream Split(key) derives, in place: the
// value form a recycled run record keeps its substreams in.
func (r *Source) SplitTo(key uint64, dst *Source) {
	dst.Seed(r.s[0] ^ rotl(r.s[2], 23) ^ (key * 0xd1342543de82ef95))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1), never exactly zero, which
// is convenient for inverse-CDF sampling that takes a logarithm.
func (r *Source) Float64Open() float64 {
	for {
		v := r.Float64()
		if v > 0 {
			return v
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Uniform returns a uniform value in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exponential samples an exponential distribution with the given rate
// (events per unit time). The mean of the distribution is 1/rate.
func (r *Source) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential with non-positive rate")
	}
	return -math.Log(r.Float64Open()) / rate
}

// Weibull samples a Weibull distribution with the given shape k and scale
// lambda via inverse-CDF: lambda * (-ln U)^(1/k). Shape < 1 produces the
// infant-mortality-heavy inter-arrival behaviour observed on HPC systems.
func (r *Source) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Weibull with non-positive parameter")
	}
	return scale * math.Pow(-math.Log(r.Float64Open()), 1/shape)
}

// Normal samples a standard normal using the Marsaglia polar method.
func (r *Source) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// NormalMuSigma samples a normal with mean mu and standard deviation sigma.
func (r *Source) NormalMuSigma(mu, sigma float64) float64 {
	return mu + sigma*r.Normal()
}

// LogNormal samples exp(N(mu, sigma)). Lead times of mined failure chains
// are heavy-tailed and strictly positive, which log-normal captures well.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.NormalMuSigma(mu, sigma))
}

// Triangular samples a triangular distribution on [lo, hi] with mode m.
func (r *Source) Triangular(lo, m, hi float64) float64 {
	if !(lo <= m && m <= hi) || lo == hi {
		panic("rng: Triangular with invalid parameters")
	}
	u := r.Float64()
	f := (m - lo) / (hi - lo)
	if u < f {
		return lo + math.Sqrt(u*(hi-lo)*(m-lo))
	}
	return hi - math.Sqrt((1-u)*(hi-lo)*(hi-m))
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}
