// Package sla provides tail-latency tracking for QoS-driven control: a
// streaming quantile estimator (the P² algorithm of Jain & Chlamtac, CACM
// 1985 — constant memory, no sample storage) and an exact sliding-window
// tail tracker. The paper motivates ConScale with strict web QoS targets
// ("web search requires 99th percentile response time < 300 ms"); these
// trackers let a controller act on the SLA signal directly, which matters
// exactly when the under-allocation effect keeps CPU below any hardware
// threshold while response times burn.
package sla

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"conscale/internal/des"
)

// P2Quantile estimates a single quantile of a stream in O(1) memory using
// the P-squared algorithm. The zero value is not usable; call NewP2.
//
// Accuracy: P² carries no worst-case guarantee, but on latency-shaped
// distributions the estimate tracks the exact quantile closely. The
// accuracy tests pin the contract this package relies on: within 5%
// relative error at p95 and p99 on lognormal and Pareto (alpha 2.5)
// streams after ~50k observations (measured worst case ≈ 3.5%, Pareto
// p99). For an exact answer over a bounded horizon, use WindowTail.
type P2Quantile struct {
	p       float64
	count   int
	heights [5]float64
	pos     [5]float64
	desired [5]float64
	incr    [5]float64
	initial []float64
}

// NewP2 returns an estimator for the p-quantile (0 < p < 1).
func NewP2(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic("sla: quantile out of (0, 1)")
	}
	q := &P2Quantile{p: p}
	q.incr = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return q
}

// Add incorporates one observation.
func (q *P2Quantile) Add(v float64) {
	if q.count < 5 {
		q.initial = append(q.initial, v)
		q.count++
		if q.count == 5 {
			sort.Float64s(q.initial)
			copy(q.heights[:], q.initial)
			for i := range q.pos {
				q.pos[i] = float64(i + 1)
				q.desired[i] = 1 + 4*q.incr[i]
			}
			q.initial = nil
		}
		return
	}
	q.count++

	// Locate the cell containing v and update the extremes.
	var k int
	switch {
	case v < q.heights[0]:
		q.heights[0] = v
		k = 0
	case v >= q.heights[4]:
		q.heights[4] = v
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if v < q.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := range q.desired {
		q.desired[i] += q.incr[i]
	}

	// Adjust interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := q.desired[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1
			}
			h := q.parabolic(i, s)
			if q.heights[i-1] < h && h < q.heights[i+1] {
				q.heights[i] = h
			} else {
				q.heights[i] = q.linear(i, s)
			}
			q.pos[i] += s
		}
	}
}

func (q *P2Quantile) parabolic(i int, d float64) float64 {
	return q.heights[i] + d/(q.pos[i+1]-q.pos[i-1])*
		((q.pos[i]-q.pos[i-1]+d)*(q.heights[i+1]-q.heights[i])/(q.pos[i+1]-q.pos[i])+
			(q.pos[i+1]-q.pos[i]-d)*(q.heights[i]-q.heights[i-1])/(q.pos[i]-q.pos[i-1]))
}

func (q *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return q.heights[i] + d*(q.heights[j]-q.heights[i])/(q.pos[j]-q.pos[i])
}

// Count returns the number of observations.
func (q *P2Quantile) Count() int { return q.count }

// Value returns the current quantile estimate (NaN when empty; exact for
// fewer than five observations).
func (q *P2Quantile) Value() float64 {
	if q.count == 0 {
		return math.NaN()
	}
	if q.count < 5 {
		sorted := append([]float64(nil), q.initial...)
		sort.Float64s(sorted)
		idx := int(q.p * float64(len(sorted)))
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		return sorted[idx]
	}
	return q.heights[2]
}

// WindowTail tracks exact percentiles over a sliding time window of
// response-time samples — the controller-facing SLA signal.
//
// Step response: after a level shift in the stream, the windowed
// percentile is a mix of old and new samples until the old ones age
// out, so the reported p99 reaches the new level no later than one full
// window span after the step (the flush bound) — and much sooner for
// high percentiles, since p99 needs only ~1% of the window's samples at
// the new level before rank interpolation lands on them. P² has no such
// bound: its markers chase a step asymptotically (see the step-bias
// test for the measured lag), which is why episode detection feeds on
// WindowTail rather than P2Quantile.
type WindowTail struct {
	window des.Time
	times  []des.Time
	values []float64
	head   int // index of the oldest retained sample
	// scratch is Percentile's working copy of the live values, kept
	// between calls: selection reorders it, and the samples themselves
	// must stay in arrival order for prune.
	scratch []float64
}

// NewWindowTail returns a tracker over the given span.
func NewWindowTail(window des.Time) *WindowTail {
	if window <= 0 {
		panic("sla: non-positive window")
	}
	return &WindowTail{window: window}
}

// Add records a sample at time t. Times must be non-decreasing, and rt
// must not be NaN (an unordered value has no rank).
func (w *WindowTail) Add(t des.Time, rt float64) {
	w.times = append(w.times, t)
	w.values = append(w.values, rt)
	w.prune(t)
}

func (w *WindowTail) prune(now des.Time) {
	cut := now - w.window
	for w.head < len(w.times) && w.times[w.head] < cut {
		w.head++
	}
	// Compact occasionally so memory stays proportional to the window:
	// slide the live samples to the front of the same arrays, whose
	// capacity then serves every later Add.
	if w.head > 1024 && w.head*2 > len(w.times) {
		w.times = w.times[:copy(w.times, w.times[w.head:])]
		w.values = w.values[:copy(w.values, w.values[w.head:])]
		w.head = 0
	}
}

// Count returns the samples currently inside the window (as of the last
// Add or Percentile call).
func (w *WindowTail) Count() int { return len(w.times) - w.head }

// Percentile returns the p-th percentile (0..100) of samples in the
// window ending at now; NaN when the window is empty. It is the linear
// interpolation between the two order statistics around rank
// p/100·(n−1), which it finds by selection rather than by sorting the
// window: the same two floats a full sort would index, at O(n) per call
// and no allocation once the scratch copy has grown to the window's size.
func (w *WindowTail) Percentile(now des.Time, p float64) float64 {
	w.prune(now)
	live := w.values[w.head:]
	n := len(live)
	if n == 0 {
		return math.NaN()
	}
	w.scratch = append(w.scratch[:0], live...)
	v := w.scratch
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	if lo+1 >= n {
		return slices.Max(v)
	}
	selectKth(v, lo)
	// Everything right of lo is ≥ v[lo], so the next order statistic is
	// the smallest value there.
	frac := rank - float64(lo)
	return v[lo]*(1-frac) + slices.Min(v[lo+1:])*frac
}

// selectKth reorders v so that v[k] holds the value a full sort would put
// there, nothing left of k is larger and nothing right of k is smaller.
// It is quickselect with a median-of-three pivot and a two-pointer
// partition that stops on values equal to the pivot (sorted, reversed and
// constant inputs all split in the middle); should the splits still go
// badly for 2·log2(n) rounds it sorts what is left, which bounds the
// worst case at O(n log n).
func selectKth(v []float64, k int) {
	selectWithin(v, k, 2*bits.Len(uint(len(v))))
}

// selectWithin is selectKth with the partition-round budget given.
func selectWithin(v []float64, k, budget int) {
	lo, hi := 0, len(v)-1
	for ; hi > lo; budget-- {
		if budget == 0 || hi-lo < 8 {
			sort.Float64s(v[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if v[mid] < v[lo] {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if v[hi] < v[lo] {
			v[hi], v[lo] = v[lo], v[hi]
		}
		if v[hi] < v[mid] {
			v[hi], v[mid] = v[mid], v[hi]
		}
		pivot := v[mid]
		i, j := lo, hi
		for i <= j {
			for v[i] < pivot {
				i++
			}
			for v[j] > pivot {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		// v[lo..j] ≤ pivot ≤ v[i..hi]; anything strictly between j and i
		// equals the pivot and is already in place.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}
