package telemetry

import (
	"math"
	"sync/atomic"
)

// Log-linear bucket layout. Each power-of-two octave is split into histSub
// linear sub-buckets, so any recorded value within the covered range
// [2^histMinExp, 2^histMaxExp) is represented by its bucket midpoint with a
// relative error of at most 1/(2*histSub) = 3.125%. The range spans ~7.6 µs
// to ~2048 s, comfortably bracketing every response time the simulator or
// the live stack can produce; values outside it land in the underflow or
// overflow bucket.
const (
	histSub     = 16
	histMinExp  = -17
	histMaxExp  = 11
	histOctaves = histMaxExp - histMinExp
	// +2: one underflow bucket below 2^histMinExp, one overflow at the top.
	histBuckets = histOctaves*histSub + 2
)

// Histogram is a fixed-size log-linear histogram for response-time
// distributions. Observe is lock-free (atomic bucket increments into a
// pre-allocated array) and allocation-free; a nil receiver is a valid
// no-op, so unarmed instrumentation costs one compare per call site.
type Histogram struct {
	count   atomic.Uint64
	sumBits atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value (seconds).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// bucketIndex maps a value to its bucket. NaN and non-positive values land
// in the underflow bucket (index 0).
func bucketIndex(v float64) int {
	if !(v > 0) {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	oct := exp - 1             // v in [2^oct, 2^(oct+1))
	if oct < histMinExp {
		return 0
	}
	if oct >= histMaxExp {
		return histBuckets - 1
	}
	sub := int((2*frac - 1) * histSub)
	if sub > histSub-1 {
		sub = histSub - 1
	}
	return 1 + (oct-histMinExp)*histSub + sub
}

// bucketUpper returns the exclusive upper bound of bucket i (+Inf for the
// overflow bucket).
func bucketUpper(i int) float64 {
	if i <= 0 {
		return math.Ldexp(1, histMinExp)
	}
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	oct := (i-1)/histSub + histMinExp
	sub := (i - 1) % histSub
	return math.Ldexp(1+float64(sub+1)/histSub, oct)
}

// bucketLower returns the inclusive lower bound of bucket i.
func bucketLower(i int) float64 {
	if i <= 0 {
		return 0
	}
	if i >= histBuckets-1 {
		return math.Ldexp(1, histMaxExp)
	}
	oct := (i-1)/histSub + histMinExp
	sub := (i - 1) % histSub
	return math.Ldexp(1+float64(sub)/histSub, oct)
}

// snapshot copies the bucket counts (a consistent-enough view for
// exposition; individual buckets are atomically read).
func (h *Histogram) snapshot() (buckets [histBuckets]uint64, count uint64, sum float64) {
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
		count += buckets[i]
	}
	return buckets, count, h.Sum()
}

// Quantile estimates the p-quantile (0 < p < 1) of the recorded
// distribution as the midpoint of the bucket containing that rank. Within
// the covered range the estimate's relative error is bounded by
// 1/(2*histSub) = 3.125% plus the rank discretisation of the bucket width.
// It returns NaN when the histogram is empty.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return math.NaN()
	}
	buckets, total, _ := h.snapshot()
	if total == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var acc uint64
	for i, n := range buckets {
		acc += n
		if acc >= rank {
			switch i {
			case 0:
				return bucketUpper(0) / 2
			case histBuckets - 1:
				return bucketLower(histBuckets - 1)
			default:
				return (bucketLower(i) + bucketUpper(i)) / 2
			}
		}
	}
	return math.NaN() // unreachable
}
