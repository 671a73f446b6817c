// Package rng provides a deterministic, splittable pseudo-random number
// generator and the distribution draws used throughout the simulator.
//
// Every experiment in this repository is seeded, so two runs with the same
// seed produce bit-identical results. The generator is SplitMix64 (Steele,
// Lea, Flood: "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014),
// chosen because independent streams can be forked cheaply for each server,
// user, and trace without correlation, which keeps concurrent simulation
// components reproducible regardless of event interleaving.
package rng

import "math"

// golden is the 64-bit golden ratio increment used by SplitMix64.
const golden = 0x9e3779b97f4a7c15

// Source is a deterministic random source. It is not safe for concurrent
// use; fork one per goroutine or simulation component with Split.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Distinct seeds yield independent
// streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split forks an independent child stream. The parent advances, so repeated
// Split calls yield distinct children.
func (s *Source) Split() *Source {
	// Mixing the next output back through the finalizer decorrelates the
	// child stream from the parent's subsequent outputs.
	return New(mix(s.Uint64()))
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// mix is the SplitMix64 output finalizer.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Multiply-shift bounded rejection (Lemire). Bias is negligible for the
	// simulator's n (< 2^31), but reject to keep draws exactly uniform.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	return aHi*bHi + w2 + (w1 >> 32), a * b
}

// Exp returns an exponentially distributed value with the given mean.
// It panics if mean is negative; a zero mean returns zero, which lets
// callers express "no think time" without special cases.
func (s *Source) Exp(mean float64) float64 {
	if mean < 0 {
		panic("rng: Exp with negative mean")
	}
	if mean == 0 {
		return 0
	}
	u := s.Float64()
	// 1-u is in (0, 1], so Log never sees zero.
	return -mean * math.Log(1-u)
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's multiplication method for small means and a normal approximation
// for large ones (mean > 64) where Knuth's method would be slow.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation with continuity correction.
		v := mean + math.Sqrt(mean)*s.Norm()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	limit := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= s.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// Norm returns a standard normal value (Box-Muller, one branch kept simple
// rather than cached: the simulator is not bottlenecked on normals).
func (s *Source) Norm() float64 {
	u1 := 1 - s.Float64() // (0, 1]
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns a log-normally distributed value such that the result
// has the given mean and the underlying normal has standard deviation sigma.
// Service times in real servers are right-skewed; the simulator uses this
// for per-request demand jitter.
func (s *Source) LogNormal(mean, sigma float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.LogNormalLn(math.Log(mean), sigma)
}

// LogNormalLn is LogNormal for a caller that already holds lnMean, the
// natural logarithm of the (positive) mean — a compiled visit program
// draws the same phase duration's jitter millions of times. The result
// and the stream position are bit-identical to LogNormal(mean, sigma).
func (s *Source) LogNormalLn(lnMean, sigma float64) float64 {
	// E[exp(N(mu, sigma^2))] = exp(mu + sigma^2/2); solve for mu.
	mu := lnMean - sigma*sigma/2
	return math.Exp(mu + sigma*s.Norm())
}

// Perm fills a permutation of [0, n) using Fisher-Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Pick returns an index in [0, len(weights)) with probability proportional
// to weights[i]. Zero or negative total weight picks uniformly.
func (s *Source) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return s.Intn(len(weights))
	}
	target := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}
