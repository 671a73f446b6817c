package workload

import (
	"fmt"
	"math"

	"conscale/internal/des"
	"conscale/internal/sla"
)

// Class describes one slice of a streaming open-loop client population:
// a share of the notional users with its own mean think time. The class
// contributes weight/Σweights of the user curve and issues requests at
// users·share/ThinkTime per second. Classes let a single aggregate
// arrival process model heterogeneous populations (readers vs. authors,
// mobile vs. desktop) without a resident struct per client.
type Class struct {
	// Name labels the class in StreamStats; optional.
	Name string
	// Weight is the class's relative share of the user population.
	// Must be positive; weights are normalised internally.
	Weight float64
	// ThinkTime is the class's mean think time in seconds (exponential),
	// i.e. the mean interval between one notional user's requests.
	// Must be positive.
	ThinkTime float64
}

// ClassCount is the per-class slice of StreamStats.
type ClassCount struct {
	// Name is the class label (Class.Name, or "default").
	Name string
	// Issued counts requests the class has issued.
	Issued int64
}

// StreamStats is the constant-memory aggregate a streaming population
// maintains in place of the per-request Sample slice: whole-run counters
// plus P² quantile estimators (p50/p95/p99) over successful completions
// finishing at or after TailFrom. Its size is independent of both the
// client count and the request count — the property the scale mode's
// memory-budget test pins.
type StreamStats struct {
	// Issued counts all requests issued (completions may still be in flight).
	Issued int64
	// OK and Errors count completions over the whole run.
	OK, Errors int64
	// TailFrom is the warmup cutoff: completions before it are counted in
	// OK/Errors but excluded from the tail estimators and MeanRT.
	TailFrom des.Time
	// TailOK counts the successful completions feeding the estimators.
	TailOK int64
	// MaxRT is the largest successful response time past TailFrom (seconds).
	MaxRT float64
	// Classes holds per-class issue counts, in Class order.
	Classes []ClassCount

	rtSum         float64
	p50, p95, p99 *sla.P2Quantile
}

// newStreamStats allocates the aggregate for the given (already
// normalised) classes.
func newStreamStats(classes []Class, tailFrom des.Time) *StreamStats {
	st := &StreamStats{
		TailFrom: tailFrom,
		Classes:  make([]ClassCount, len(classes)),
		p50:      sla.NewP2(0.50),
		p95:      sla.NewP2(0.95),
		p99:      sla.NewP2(0.99),
	}
	for i, c := range classes {
		name := c.Name
		if name == "" {
			name = "default"
		}
		st.Classes[i].Name = name
	}
	return st
}

// observe folds one completion into the aggregate.
func (st *StreamStats) observe(s Sample) {
	if s.OK {
		st.OK++
	} else {
		st.Errors++
	}
	if !s.OK || s.Finish < st.TailFrom {
		return
	}
	st.TailOK++
	st.rtSum += s.RT
	if s.RT > st.MaxRT {
		st.MaxRT = s.RT
	}
	st.p50.Add(s.RT)
	st.p95.Add(s.RT)
	st.p99.Add(s.RT)
}

// MeanRT returns the mean successful response time past TailFrom in
// seconds, or NaN before the first tail completion.
func (st *StreamStats) MeanRT() float64 {
	if st.TailOK == 0 {
		return math.NaN()
	}
	return st.rtSum / float64(st.TailOK)
}

// Quantile returns the streaming estimate of the p-th percentile
// response time (seconds) over successful completions past TailFrom.
// Only the maintained percentiles 50, 95 and 99 are available; any other
// p panics. Estimates follow the P² accuracy contract documented in
// internal/sla (≤5% relative error on latency-shaped streams).
func (st *StreamStats) Quantile(p float64) float64 {
	switch p {
	case 50:
		return st.p50.Value()
	case 95:
		return st.p95.Value()
	case 99:
		return st.p99.Value()
	}
	panic(fmt.Sprintf("workload: streaming population maintains p50/p95/p99, not p%g", p))
}

// Stream returns the streaming aggregate, or nil when the generator is
// not in streaming mode.
func (g *Generator) Stream() *StreamStats { return g.stream }

// startStreaming launches the O(1)-memory open-loop population: a single
// aggregate arrival process whose rate tracks the trace,
// rate(t) = Σ_c UsersAt(t)·w_c/think_c, with each arrival assigned to a
// class in proportion to the class's rate. Nothing is kept per client —
// the scheduled state is one pending arrival event plus the in-flight
// completions — and completions feed StreamStats instead of the Sample
// slice, so memory is independent of the client count.
func (g *Generator) startStreaming() {
	classes := g.cfg.Classes
	if len(classes) == 0 {
		think := g.cfg.ThinkTime
		if think <= 0 {
			think = 1
		}
		classes = []Class{{Name: "default", Weight: 1, ThinkTime: think}}
	}
	wsum := 0.0
	for i, c := range classes {
		if c.Weight <= 0 {
			panic(fmt.Sprintf("workload: class %d has non-positive weight", i))
		}
		if c.ThinkTime <= 0 {
			panic(fmt.Sprintf("workload: class %d has non-positive think time", i))
		}
		wsum += c.Weight
	}
	g.stream = newStreamStats(classes, g.cfg.TailFrom)
	rates := make([]float64, len(classes))
	end := g.startAt + g.cfg.Trace.Duration
	var next func()
	next = func() {
		now := g.eng.Now()
		if now >= end {
			return
		}
		g.curUsers = g.cfg.Trace.UsersAt(now)
		total := 0.0
		for i, c := range classes {
			rates[i] = float64(g.curUsers) * (c.Weight / wsum) / c.ThinkTime
			total += rates[i]
		}
		if total <= 0 {
			total = 0.1 // idle-trace keep-alive, as in the open-loop path
		}
		g.eng.After(des.Time(g.rnd.Exp(1/total)), func() {
			class := 0
			if len(rates) > 1 {
				class = g.rnd.Pick(rates)
			}
			g.issueStream(class)
			next()
		})
	}
	next()
}

// issueStream fires one streaming open-loop request on behalf of a class.
func (g *Generator) issueStream(class int) {
	g.stream.Issued++
	g.stream.Classes[class].Issued++
	start := g.depart()
	g.submit(func(ok bool) { g.land(start, ok) })
}
