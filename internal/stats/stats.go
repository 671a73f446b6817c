// Package stats provides the statistical primitives shared by the metrics
// pipeline and the SCT model: percentiles, online accumulators, and binning
// of (concurrency, throughput) samples.
package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of values using
// linear interpolation between closest ranks. It returns NaN for an empty
// input and panics on an out-of-range p.
func Percentile(values []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic("stats: percentile out of [0, 100]")
	}
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// PercentileSorted is Percentile for input already in ascending order; it
// does not copy.
func PercentileSorted(sorted []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic("stats: percentile out of [0, 100]")
	}
	if len(sorted) == 0 {
		return math.NaN()
	}
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Max returns the maximum, or NaN for empty input.
func Max(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	m := values[0]
	for _, v := range values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum, or NaN for empty input.
func Min(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	m := values[0]
	for _, v := range values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Online accumulates count, mean, and variance in one pass (Welford's
// algorithm). The zero value is an empty accumulator.
type Online struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (o *Online) Add(v float64) {
	o.n++
	d := v - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (v - o.mean)
}

// Merge combines another accumulator into this one (Chan et al. parallel
// variance), so per-window accumulators can be rolled up.
func (o *Online) Merge(other Online) {
	if other.n == 0 {
		return
	}
	if o.n == 0 {
		*o = other
		return
	}
	n := o.n + other.n
	d := other.mean - o.mean
	mean := o.mean + d*float64(other.n)/float64(n)
	m2 := o.m2 + other.m2 + d*d*float64(o.n)*float64(other.n)/float64(n)
	o.n, o.mean, o.m2 = n, mean, m2
}

// Count returns the number of observations.
func (o *Online) Count() int { return o.n }

// Mean returns the running mean (NaN when empty).
func (o *Online) Mean() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.mean
}

// Variance returns the population variance (NaN when empty).
func (o *Online) Variance() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.m2 / float64(o.n)
}

// StdDev returns the population standard deviation (NaN when empty).
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Bin aggregates samples keyed by an integer bin (the SCT model bins
// 50 ms samples by rounded concurrency).
type Bin struct {
	Key int
	TP  Online // throughput samples in this bin
	RT  Online // response-time samples in this bin
}

// BinSet holds bins in ascending key order.
type BinSet struct {
	bins map[int]*Bin
}

// NewBinSet returns an empty bin set.
func NewBinSet() *BinSet { return &BinSet{bins: make(map[int]*Bin)} }

// Add records one (key, throughput, responseTime) sample.
func (b *BinSet) Add(key int, tp, rt float64) {
	bin, ok := b.bins[key]
	if !ok {
		bin = &Bin{Key: key}
		b.bins[key] = bin
	}
	bin.TP.Add(tp)
	bin.RT.Add(rt)
}

// Len returns the number of distinct keys.
func (b *BinSet) Len() int { return len(b.bins) }

// Sorted returns bins in ascending key order.
func (b *BinSet) Sorted() []*Bin {
	out := make([]*Bin, 0, len(b.bins))
	for _, bin := range b.bins {
		out = append(out, bin)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
