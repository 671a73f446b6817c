// Package sct implements the paper's core contribution: the online
// Scatter-Concurrency-Throughput model (Section III). From a window of
// fine-grained {concurrency, throughput, response time} tuples it estimates
// the rational concurrency range [Qlower, Qupper] of a server via
// statistical intervention analysis, and recommends Qlower — the minimum
// concurrency achieving maximum throughput — as the optimal soft-resource
// setting (lower concurrency in the stable stage means lower response time).
package sct

import (
	"math"

	"conscale/internal/des"
	"conscale/internal/metrics"
	"conscale/internal/stats"
)

// Config tunes the estimator.
type Config struct {
	// CollectionWindow is the span of history consumed per estimate (the
	// paper's Real-time Metrics Collection phase uses ~3 minutes).
	CollectionWindow des.Time
	// MinSamplesPerBin is the support a concurrency bin needs to
	// participate in the intervention analysis.
	MinSamplesPerBin int
	// Tolerance is the fractional throughput drop still considered "at
	// the plateau".
	Tolerance float64
	// MinTotalSamples is the minimum number of usable tuples before an
	// estimate is attempted at all.
	MinTotalSamples int
	// MinDistinctBins is the minimum concurrency diversity required: a
	// server that only ever ran at one concurrency cannot reveal its
	// curve.
	MinDistinctBins int
}

// DefaultConfig matches the paper's operating point: 3-minute collection,
// 50 ms tuples, 5% plateau tolerance.
func DefaultConfig() Config {
	return Config{
		CollectionWindow: 180 * des.Second,
		MinSamplesPerBin: 3,
		Tolerance:        0.05,
		MinTotalSamples:  40,
		MinDistinctBins:  4,
	}
}

// Estimate is the outcome of one SCT analysis.
type Estimate struct {
	// Qlower and Qupper bound the rational concurrency range.
	Qlower, Qupper int
	// PlateauTP is the sustained maximum throughput (req/s).
	PlateauTP float64
	// RTAtQlower is the mean response time observed in the Qlower bin
	// (seconds), the expected operating latency at the recommendation.
	RTAtQlower float64
	// Confidence is the fraction of well-supported bins in the range.
	Confidence float64
	// Samples is the number of tuples used.
	Samples int
	// QminSeen and QmaxSeen are the observed concurrency extremes.
	QminSeen, QmaxSeen int
	// Saturated reports whether the descending stage was actually
	// observed (well-supported bins exist beyond Qupper). An unsaturated
	// estimate means the server never ran past its plateau in the
	// collection window, so Qlower is only a lower bound on the true
	// optimum — controllers must not tighten allocations below the
	// current setting on such evidence.
	Saturated bool
}

// Optimal returns the recommended soft-resource setting: the lower bound
// of the rational range, never below 1.
func (e Estimate) Optimal() int {
	if e.Qlower < 1 {
		return 1
	}
	return e.Qlower
}

// Estimator turns window samples into rational-range estimates.
type Estimator struct {
	cfg Config
}

// New returns an estimator with the given configuration (zero fields fall
// back to defaults).
func New(cfg Config) *Estimator {
	def := DefaultConfig()
	if cfg.CollectionWindow <= 0 {
		cfg.CollectionWindow = def.CollectionWindow
	}
	if cfg.MinSamplesPerBin <= 0 {
		cfg.MinSamplesPerBin = def.MinSamplesPerBin
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = def.Tolerance
	}
	if cfg.MinTotalSamples <= 0 {
		cfg.MinTotalSamples = def.MinTotalSamples
	}
	if cfg.MinDistinctBins <= 0 {
		cfg.MinDistinctBins = def.MinDistinctBins
	}
	return &Estimator{cfg: cfg}
}

// Config returns the effective configuration.
func (e *Estimator) Config() Config { return e.cfg }

// Bucket maps a concurrency level to its bin key. Low concurrencies get
// unit bins; higher ones get geometrically wider bins (width 2 above 16,
// 4 above 32, ...) because a server under real bursty load dwells either
// low (light load) or pinned at its pool limit (overload) and only passes
// through the middle transiently — unit bins there would be starved below
// MinSamplesPerBin and the knee region would vanish from the analysis.
// The key is the bucket's centre so Qlower/Qupper remain in concurrency
// units.
func Bucket(q int) int {
	width, base := 1, 8
	for q > base {
		width *= 2
		base *= 2
	}
	return (q/width)*width + width/2
}

// Estimate runs the two SCT phases over the tuples. Phase one bins the
// 50 ms samples by bucketed concurrency and averages throughput and
// response time per bin. Phase two locates the rational range with an
// operational variant of the paper's intervention analysis, built on the
// Utilization Law the paper invokes: in the ascending stage throughput
// follows TP(Q) = Q/RT0 (RT0 = the unloaded response time, measured from
// the dense low-concurrency bins), and the stage ends where that asymptote
// crosses the maximum sustainable throughput TPmax (measured as the best
// well-supported bin mean). Qlower is the crossing point — robust even
// when the knee region itself is sparsely visited, which is the common
// case for a server that alternates between light load and being pinned
// at its pool limit.
func (e *Estimator) Estimate(samples []metrics.WindowSample) (Estimate, bool) {
	bins := stats.NewBinSet()
	used := 0
	qmin, qmax := math.MaxInt32, 0
	for _, s := range samples {
		// Windows with no completions carry no throughput information;
		// windows at zero concurrency are idle.
		if s.Completions == 0 || s.Concurrency <= 0 {
			continue
		}
		q := int(s.Concurrency + 0.5)
		if q < 1 {
			q = 1
		}
		rt := s.RT
		if math.IsNaN(rt) {
			rt = 0
		}
		bins.Add(Bucket(q), s.Throughput, rt)
		used++
		if q < qmin {
			qmin = q
		}
		if q > qmax {
			qmax = q
		}
	}
	if used < e.cfg.MinTotalSamples || bins.Len() < e.cfg.MinDistinctBins {
		return Estimate{}, false
	}
	sorted := bins.Sorted()

	// RT0: count-weighted mean response time of the low-concurrency bins
	// (at most the four lowest keys). These are dense under light load
	// and free of queueing.
	rt0Sum, rt0N := 0.0, 0
	for i, b := range sorted {
		if i >= 4 {
			break
		}
		rt0Sum += b.RT.Mean() * float64(b.RT.Count())
		rt0N += b.RT.Count()
	}
	if rt0N == 0 || rt0Sum <= 0 {
		return Estimate{}, false
	}
	rt0 := rt0Sum / float64(rt0N)

	// TPmax: the best bin mean with minimal support (2 samples — the knee
	// is visited only transiently, demanding more support would erase it).
	tpMax, tpMaxKey := 0.0, 0
	for _, b := range sorted {
		if b.TP.Count() < 2 {
			continue
		}
		if m := b.TP.Mean(); m > tpMax {
			tpMax, tpMaxKey = m, b.Key
		}
	}
	if tpMax <= 0 {
		return Estimate{}, false
	}

	qlower := int(tpMax*rt0 + 0.5)
	if qlower < 1 {
		qlower = 1
	}
	if qlower > qmax {
		qlower = qmax
	}

	// Qupper: the largest bin still holding >= (1-tolerance) of TPmax.
	qupper := qlower
	for _, b := range sorted {
		if b.TP.Count() >= 2 && b.Key > qupper && b.TP.Mean() >= (1-e.cfg.Tolerance)*tpMax {
			qupper = b.Key
		}
	}

	// Saturation evidence — both must hold or TPmax is an arrival-rate
	// artefact of a lightly loaded window rather than a capacity point:
	//   1. some bin above Qlower shows real queueing (RT well above RT0),
	//      i.e. the window pushed the server past its knee;
	//   2. TPmax was not observed at the very top of the visited range
	//      (where the curve may still be ascending).
	queueingSeen := false
	for _, b := range sorted {
		if b.Key > qlower && b.RT.Mean() >= 1.5*rt0 {
			queueingSeen = true
			break
		}
	}
	topKey := sorted[len(sorted)-1].Key
	sat := queueingSeen && tpMaxKey < topKey

	est := Estimate{
		Qlower:     qlower,
		Qupper:     qupper,
		PlateauTP:  tpMax,
		RTAtQlower: rt0,
		Confidence: 1,
		Samples:    used,
		QminSeen:   qmin,
		QmaxSeen:   qmax,
		Saturated:  sat,
	}
	return est, true
}

// ScatterPoint is one (concurrency, value) pair for the Fig. 6/7 scatter
// graphs.
type ScatterPoint struct {
	// Concurrency is the x coordinate (windowed mean concurrency).
	Concurrency float64
	// Value is the y coordinate (throughput or response time).
	Value float64
}

// Scatter extracts the throughput-vs-concurrency and RT-vs-concurrency
// point clouds from the tuples (the raw material of the paper's scatter
// plots).
func Scatter(samples []metrics.WindowSample) (tp, rt []ScatterPoint) {
	for _, s := range samples {
		if s.Completions == 0 || s.Concurrency <= 0 {
			continue
		}
		tp = append(tp, ScatterPoint{Concurrency: s.Concurrency, Value: s.Throughput})
		if !math.IsNaN(s.RT) {
			rt = append(rt, ScatterPoint{Concurrency: s.Concurrency, Value: s.RT})
		}
	}
	return tp, rt
}
