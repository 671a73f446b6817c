package workload

import (
	"math"
	"sort"

	"conscale/internal/des"
	"conscale/internal/rng"
	"conscale/internal/stats"
)

// Submitter delivers one end-to-end request into the system under test and
// invokes done exactly once with the outcome. The cluster provides it; the
// generator stays ignorant of tier wiring.
type Submitter func(done func(ok bool))

// Tap observes the client request stream from inside the generator: every
// issue path (closed loop, open loop, streaming) calls OnArrival as a
// request leaves and OnComplete as its response lands. OnComplete gets
// the raw outcome the system under test reported — before the Abandon
// patience limit rewrites late successes as failures — and the issue
// instant the generator already holds, so an observer neither wraps the
// Submitter nor reads the clock. A tap must only read: it draws no
// randomness and schedules nothing, which is what keeps an observed run's
// trajectory identical to a bare one.
type Tap interface {
	OnArrival(now des.Time)
	OnComplete(start, now des.Time, ok bool)
}

// GeneratorConfig configures the closed-loop user population.
type GeneratorConfig struct {
	// Trace is the workload-variation curve driving the population size.
	Trace *Trace
	// ThinkTime is the mean exponential think time between a user's
	// response and next request (RUBBoS uses ~7 s; 0 = closed loop with
	// zero think, used by the fixed-concurrency profiling sweeps).
	ThinkTime float64
	// AdjustEvery is how often the population tracks the trace (default 1 s).
	AdjustEvery des.Time
	// StatsInterval is the client-side aggregation window for the timeline
	// series (default 1 s).
	StatsInterval des.Time
	// OpenLoop switches from the closed-loop user population to open-loop
	// Poisson arrivals: the trace's user curve is converted to a request
	// rate of UsersAt(t)/ThinkTime per second, issued regardless of
	// completions (the paper's "request rate follows a Poisson
	// distribution"). Open-loop load does not self-throttle under
	// overload, which makes queue growth — and tail blowup — harsher.
	OpenLoop bool
	// Abandon, when positive, is the patience limit: responses that
	// arrive after this many seconds count as failures (the user gave
	// up), matching how real visitors experience an overloaded site.
	Abandon float64
	// Streaming switches to the O(1)-memory open-loop population used by
	// the million-client scale mode: one aggregate arrival process whose
	// rate tracks the trace (per class, see Classes), with completions
	// folded into constant-size StreamStats instead of the per-request
	// Sample slice. Samples() returns nil and TailLatency serves only the
	// maintained p50/p95/p99 in this mode; everything else — Timeline,
	// ErrorRate, GoodputTotal — behaves identically. Implies open loop.
	Streaming bool
	// Classes partitions the streaming population into think-time classes
	// (ignored unless Streaming). Empty means one class with ThinkTime.
	Classes []Class
	// TailFrom is the streaming warmup cutoff: completions finishing
	// before it are excluded from the tail estimators and MeanRT
	// (ignored unless Streaming).
	TailFrom des.Time
	// Tap, when non-nil, observes every request the population issues and
	// every raw outcome it receives. A nil Tap costs one comparison per
	// call site.
	Tap Tap
	// NoSamples keeps no per-request Sample: Samples() returns nil, and
	// TailLatency, TailLatencies, ErrorRate and GoodputTotal, which would
	// read them, panic (ignored when Streaming, whose estimates they
	// serve). Timeline, Active and the Tap behave as ever. It is for a
	// caller that takes what it needs from the client stream through its
	// own Tap and must not hold a sample per request for as long as the
	// engine holds the generator.
	NoSamples bool
}

// Sample is one completed end-to-end request.
type Sample struct {
	// Finish is the simulation instant the response arrived.
	Finish des.Time
	// RT is the client-observed response time in seconds.
	RT float64
	// OK is false when the request was rejected or timed out.
	OK bool
}

// TimelinePoint aggregates client-observed behaviour over one interval —
// the rows of the Fig. 1/10/11 timelines.
type TimelinePoint struct {
	Time       des.Time // interval start
	Users      int      // target users at interval start
	Throughput float64  // successful completions per second
	MeanRT     float64  // seconds; NaN if no completions
	Errors     int      // rejected or timed-out requests this interval
}

// Generator replays a trace as a closed-loop user population: each user
// thinks (exponential), issues one request, waits for the response, and
// repeats. Every AdjustEvery the population is adjusted to the trace;
// excess users retire at their next decision point, matching how real
// load generators ramp sessions up and down.
type Generator struct {
	eng    *des.Engine
	rnd    *rng.Source
	cfg    GeneratorConfig
	submit Submitter

	active   int
	retiring int

	// open is the open-loop arrival process (OpenLoop or Streaming), and
	// idle the requests' flight records waiting for reuse.
	open openArrivals
	idle []*flight

	samples []Sample
	stream  *StreamStats // non-nil iff cfg.Streaming

	curStart   des.Time
	curOK      int
	curErr     int
	curRTSum   float64
	timeline   []TimelinePoint
	curUsers   int
	statsEvery des.Time
	startAt    des.Time
}

// NewGenerator wires a generator onto the engine. Call Start to begin.
func NewGenerator(eng *des.Engine, rnd *rng.Source, cfg GeneratorConfig, submit Submitter) *Generator {
	if cfg.Trace == nil {
		panic("workload: nil trace")
	}
	if cfg.AdjustEvery <= 0 {
		cfg.AdjustEvery = des.Second
	}
	if cfg.StatsInterval <= 0 {
		cfg.StatsInterval = des.Second
	}
	return &Generator{
		eng:        eng,
		rnd:        rnd,
		cfg:        cfg,
		submit:     submit,
		statsEvery: cfg.StatsInterval,
	}
}

// Start launches the population at the trace's initial level and begins
// tracking the trace until its Duration elapses. The initial population
// ramps in over a few seconds (real user sessions do not all begin at the
// same instant; a synchronous clump would fabricate an overload spike that
// no real trace contains). In open-loop mode it instead schedules Poisson
// arrivals at the trace-derived rate.
func (g *Generator) Start() {
	g.curStart = g.eng.Now()
	g.startAt = g.eng.Now()
	if g.cfg.Streaming || g.cfg.OpenLoop {
		g.startOpenLoop()
		return
	}
	g.adjust()
	ticker := g.eng.Every(g.cfg.AdjustEvery, g.adjust)
	g.eng.After(g.cfg.Trace.Duration, func() {
		ticker.Stop()
		// Retire everyone so the run drains.
		g.retiring += g.active
		g.active = 0
	})
}

// flight is one request between issue and response: the issue instant,
// and the completion callback the Submitter is handed. The callback is
// bound to the record once, when the record is made, so issuing a request
// allocates nothing. A closed-loop user has at most one request out, so
// its flight is the user: spawnUser makes it, every think re-arms it, and
// a retiring user drops it. An open-loop request takes its flight from
// the generator's idle list and returns it as the response lands.
type flight struct {
	g     *Generator
	start des.Time
	done  func(ok bool)
	// out is set from issue to response. A response for a flight that is
	// not out is a second completion of one request; counting it would
	// credit the response time to whichever request holds the record next.
	out bool
}

// depart marks the flight's request leaving the population.
func (f *flight) depart() {
	f.start = f.g.eng.Now()
	f.out = true
	if tap := f.g.cfg.Tap; tap != nil {
		tap.OnArrival(f.start)
	}
}

// arrive records the response to the flight's request.
func (f *flight) arrive(ok bool) {
	if !f.out {
		panic("workload: a request was completed twice (done called on a flight that is not outstanding)")
	}
	f.out = false
	f.g.land(f.start, ok)
}

// land records the response to the request issued at start. The tap sees
// the outcome as reported; the sample counts a success slower than the
// Abandon limit as a failure (the user stopped waiting long ago).
func (g *Generator) land(start des.Time, ok bool) {
	now := g.eng.Now()
	if g.cfg.Tap != nil {
		g.cfg.Tap.OnComplete(start, now, ok)
	}
	rt := float64(now - start)
	if ok && g.cfg.Abandon > 0 && rt > g.cfg.Abandon {
		ok = false
	}
	g.record(Sample{Finish: now, RT: rt, OK: ok})
}

func (g *Generator) adjust() {
	now := g.eng.Now()
	target := g.cfg.Trace.UsersAt(now)
	g.curUsers = target
	for g.active < target {
		// Re-activate a retiring user instead of spawning when possible.
		if g.retiring > 0 {
			g.retiring--
		} else {
			g.spawnUser()
		}
		g.active++
	}
	if g.active > target {
		g.retiring += g.active - target
		g.active = target
	}
	g.rollStats(now)
}

// initialRamp is the span over which the starting population's first
// requests are spread.
const initialRamp = 10 * des.Second

// spawnUser begins one user's think-request loop.
func (g *Generator) spawnUser() {
	think := g.rnd.Exp(g.cfg.ThinkTime)
	delay := des.Time(think)
	if g.eng.Now() == g.startAt {
		ramp := initialRamp
		if d := g.cfg.Trace.Duration / 10; d < ramp {
			ramp = d
		}
		delay += des.Time(g.rnd.Float64()) * ramp
	}
	u := &flight{g: g}
	u.done = u.userDone
	g.eng.AfterArg(delay, userIssue, u)
}

// userIssue is the event at the end of a user's think: issue, or retire.
func userIssue(arg any) {
	u := arg.(*flight)
	g := u.g
	if g.retiring > 0 {
		g.retiring--
		return
	}
	u.depart()
	g.submit(u.done)
}

// userDone is a user's completion callback: think, then issue again.
func (u *flight) userDone(ok bool) {
	u.arrive(ok)
	g := u.g
	g.eng.AfterArg(des.Time(g.rnd.Exp(g.cfg.ThinkTime)), userIssue, u)
}

func (g *Generator) record(s Sample) {
	g.rollStats(s.Finish)
	if g.stream != nil {
		g.stream.observe(s)
	} else if !g.cfg.NoSamples {
		g.samples = append(g.samples, s)
	}
	if s.OK {
		g.curOK++
		g.curRTSum += s.RT
	} else {
		g.curErr++
	}
}

func (g *Generator) rollStats(now des.Time) {
	for now >= g.curStart+g.statsEvery {
		rt := math.NaN()
		if g.curOK > 0 {
			rt = g.curRTSum / float64(g.curOK)
		}
		g.timeline = append(g.timeline, TimelinePoint{
			Time:       g.curStart,
			Users:      g.curUsers,
			Throughput: float64(g.curOK) / float64(g.statsEvery),
			MeanRT:     rt,
			Errors:     g.curErr,
		})
		g.curOK, g.curErr, g.curRTSum = 0, 0, 0
		g.curStart += g.statsEvery
	}
}

// Samples returns all completed request samples so far. In streaming
// mode no samples are retained and it returns nil — use Stream instead;
// with NoSamples it returns nil too.
func (g *Generator) Samples() []Sample { return g.samples }

// Timeline returns the per-interval aggregation, closing intervals up to
// the current simulation time.
func (g *Generator) Timeline() []TimelinePoint {
	g.rollStats(g.eng.Now())
	return g.timeline
}

// Active returns the current active user count (excludes retiring users).
func (g *Generator) Active() int { return g.active }

// TailLatency returns the p-th percentile response time (seconds) over all
// successful samples with Finish >= from — the Table I metric. In
// streaming mode it serves the maintained P² estimates for p ∈ {50, 95,
// 99} (from is fixed at config time by TailFrom and ignored here); other
// percentiles panic.
func (g *Generator) TailLatency(p float64, from des.Time) float64 {
	return g.TailLatencies(from, p)[0]
}

// TailLatencies returns several percentiles of the same sample set in one
// pass — one filter and one sort however many are asked for. The sorted
// copy lives only for the call: a generator stays reachable for as long as
// its engine does, and a cached copy would sit in the live heap beside the
// samples it duplicates.
func (g *Generator) TailLatencies(from des.Time, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if g.stream != nil {
		for i, p := range ps {
			out[i] = g.stream.Quantile(p)
		}
		return out
	}
	g.mustKeepSamples("TailLatencies")
	rts := make([]float64, 0, len(g.samples))
	for _, s := range g.samples {
		if s.OK && s.Finish >= from {
			rts = append(rts, s.RT)
		}
	}
	sort.Float64s(rts)
	for i, p := range ps {
		out[i] = stats.PercentileSorted(rts, p)
	}
	return out
}

// ErrorRate returns the fraction of failed requests over the whole run.
func (g *Generator) ErrorRate() float64 {
	if g.stream != nil {
		total := g.stream.OK + g.stream.Errors
		if total == 0 {
			return 0
		}
		return float64(g.stream.Errors) / float64(total)
	}
	g.mustKeepSamples("ErrorRate")
	if len(g.samples) == 0 {
		return 0
	}
	errs := 0
	for _, s := range g.samples {
		if !s.OK {
			errs++
		}
	}
	return float64(errs) / float64(len(g.samples))
}

// GoodputTotal returns the count of successful requests.
func (g *Generator) GoodputTotal() int {
	if g.stream != nil {
		return int(g.stream.OK)
	}
	g.mustKeepSamples("GoodputTotal")
	n := 0
	for _, s := range g.samples {
		if s.OK {
			n++
		}
	}
	return n
}

// mustKeepSamples panics when a statistic over the kept samples is asked
// of a generator that keeps none: an empty answer would read as a run
// with no traffic.
func (g *Generator) mustKeepSamples(fn string) {
	if g.cfg.NoSamples {
		panic("workload: " + fn + " on a generator configured with NoSamples")
	}
}
