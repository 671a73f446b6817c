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

// openArrivals is the state of the open-loop arrival process: the
// (normalised) classes, the scratch their current rates are computed
// into, and the instant arrivals stop.
type openArrivals struct {
	classes []Class
	wsum    float64
	rates   []float64
	end     des.Time
}

// startOpenLoop launches the open-loop population: a single aggregate
// Poisson arrival process whose rate tracks the trace,
// rate(t) = Σ_c UsersAt(t)·w_c/think_c (each notional user issues a
// request every think time on average), with each arrival assigned to a
// class in proportion to the class's rate. Nothing is kept per client —
// the scheduled state is one pending arrival event plus the in-flight
// requests. A Streaming population may have several classes and folds
// completions into StreamStats instead of the Sample slice, so its memory
// is independent of the client count; a plain OpenLoop one is the single
// class with ThinkTime.
func (g *Generator) startOpenLoop() {
	var classes []Class
	if g.cfg.Streaming {
		classes = g.cfg.Classes
	}
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
	if g.cfg.Streaming {
		g.stream = newStreamStats(classes, g.cfg.TailFrom)
	}
	g.open = openArrivals{
		classes: classes,
		wsum:    wsum,
		rates:   make([]float64, len(classes)),
		end:     g.startAt + g.cfg.Trace.Duration,
	}
	g.scheduleArrival()
}

// scheduleArrival draws the gap to the next arrival at the trace's
// current rate, until the trace ends.
func (g *Generator) scheduleArrival() {
	o := &g.open
	now := g.eng.Now()
	if now >= o.end {
		return
	}
	g.curUsers = g.cfg.Trace.UsersAt(now)
	total := 0.0
	for i, c := range o.classes {
		o.rates[i] = float64(g.curUsers) * (c.Weight / o.wsum) / c.ThinkTime
		total += o.rates[i]
	}
	if total <= 0 {
		total = 0.1 // idle-trace keep-alive
	}
	g.eng.AfterArg(des.Time(g.rnd.Exp(1/total)), openArrival, g)
}

// openArrival is the arrival event: one request on behalf of a class (no
// user waits on it), then the draw for the next.
func openArrival(arg any) {
	g := arg.(*Generator)
	class := 0
	if len(g.open.rates) > 1 {
		class = g.rnd.Pick(g.open.rates)
	}
	if g.stream != nil {
		g.stream.Issued++
		g.stream.Classes[class].Issued++
	}
	var f *flight
	if n := len(g.idle); n > 0 {
		f, g.idle = g.idle[n-1], g.idle[:n-1]
	} else {
		f = &flight{g: g}
		f.done = f.openDone
	}
	f.depart()
	g.submit(f.done)
	g.scheduleArrival()
}

// openDone is an open-loop request's completion callback: the flight goes
// back on the idle list.
func (f *flight) openDone(ok bool) {
	f.arrive(ok)
	f.g.idle = append(f.g.idle, f)
}
